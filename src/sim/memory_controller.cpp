#include "sim/memory_controller.h"

#include <algorithm>
#include <cmath>

#include "util/bitops.h"
#include "util/expect.h"

namespace dramdig::sim {

memory_controller::memory_controller(const dram::address_mapping& truth,
                                     timing_model timing, virtual_clock& clock,
                                     rng noise_rng)
    : truth_(truth), timing_(timing), clock_(clock), rng_(noise_rng),
      open_rows_(truth.bank_count()), row_mask_(mask_of_bits(truth.row_bits())),
      burst_rng_(rng_.fork()) {
  DRAMDIG_EXPECTS(truth_.is_bijective());
  // Key the counter stream off a *copy* of the noise rng: the key is a
  // pure function of the machine seed, and rng_ itself consumes nothing,
  // so the burst schedule forked from it above is unaffected.
  rng key_source = rng_;
  counter_.key0 = key_source.engine()();
  counter_.key1 = key_source.engine()();
  // Schedule the first background-load burst.
  burst_start_ns_ = static_cast<std::uint64_t>(
      -std::log(1.0 - burst_rng_.uniform()) *
      timing_.burst_mean_interval_s * 1e9);
  burst_end_ns_ = burst_start_ns_ +
                  static_cast<std::uint64_t>(-std::log(1.0 - burst_rng_.uniform()) *
                                             timing_.burst_mean_duration_s * 1e9);
}

void memory_controller::advance_burst_schedule_to(std::uint64_t now_ns) const {
  while (now_ns >= burst_end_ns_) {
    const std::uint64_t gap = static_cast<std::uint64_t>(
        -std::log(1.0 - burst_rng_.uniform()) *
        timing_.burst_mean_interval_s * 1e9);
    const std::uint64_t len = static_cast<std::uint64_t>(
        -std::log(1.0 - burst_rng_.uniform()) *
        timing_.burst_mean_duration_s * 1e9);
    burst_start_ns_ = burst_end_ns_ + gap;
    burst_end_ns_ = burst_start_ns_ + std::max<std::uint64_t>(len, 1);
  }
}

bool memory_controller::in_burst_at(std::uint64_t now_ns) const {
  advance_burst_schedule_to(now_ns);
  return now_ns >= burst_start_ns_ && now_ns < burst_end_ns_;
}

double memory_controller::effective_contamination_at(
    std::uint64_t now_ns) const {
  const double chance =
      in_burst_at(now_ns)
          ? timing_.contamination_chance * timing_.burst_contamination_factor
          : timing_.contamination_chance;
  return std::min(chance, 0.5);
}

double memory_controller::ideal_pair_latency_ns(std::uint64_t p1,
                                                std::uint64_t p2) const {
  return decode_pair(p1, p2).ideal_ns;
}

memory_controller::decoded_pair memory_controller::decode_pair(
    std::uint64_t p1, std::uint64_t p2) const {
  DRAMDIG_EXPECTS(p1 < truth_.memory_bytes() && p2 < truth_.memory_bytes());
  decoded_pair d;
  d.bank1 = truth_.bank_of(p1);
  d.row1 = p1 & row_mask_;
  d.bank2 = truth_.bank_of(p2);
  d.row2 = p2 & row_mask_;
  // Different banks each keep their row open (all hits), as does a shared
  // row buffer; same bank + different row pays a conflict every access.
  if (d.bank1 != d.bank2 || d.row1 == d.row2) {
    d.ideal_ns = timing_.row_hit_ns;
  } else {
    d.ideal_ns = timing_.row_conflict_ns;
  }
  return d;
}

memory_controller::access_tally memory_controller::tally_closed_form(
    const decoded_pair& d, unsigned rounds) const {
  access_tally t;
  const auto add = [&t](touch k, std::uint64_t n) {
    switch (k) {
      case touch::hit: t.hits += n; break;
      case touch::closed: t.closed += n; break;
      case touch::conflict: t.conflicts += n; break;
    }
  };
  // First access to p1 sees the pre-measurement state; the first access to
  // p2 then sees bank1 holding row1 (relevant only when the banks match).
  add(classify(open_rows_[d.bank1], d.row1), 1);
  if (d.bank2 == d.bank1) {
    add(d.row2 == d.row1 ? touch::hit : touch::conflict, 1);
  } else {
    add(classify(open_rows_[d.bank2], d.row2), 1);
  }
  // From the third access on, both banks hold the pair's rows: different
  // banks (or a shared row buffer) hit every time, same-bank-different-row
  // conflicts every time.
  const bool steady_hit = d.bank1 != d.bank2 || d.row1 == d.row2;
  add(steady_hit ? touch::hit : touch::conflict, 2ull * rounds - 2);
  return t;
}

pair_measurement memory_controller::finish_measurement(const decoded_pair& d,
                                                       unsigned rounds) {
  const access_tally t = tally_closed_form(d, rounds);
  const double accesses = 2.0 * static_cast<double>(rounds);
  const double mean_base = (static_cast<double>(t.hits) * timing_.row_hit_ns +
                            static_cast<double>(t.closed) * timing_.row_closed_ns +
                            static_cast<double>(t.conflicts) *
                                timing_.row_conflict_ns) /
                           accesses;

  // Mean of 2*rounds iid Gaussian samples around the loop's mean latency,
  // plus heavy-tail contamination: a scheduler preemption or refresh burst
  // inflates part of the loop; modelled as a uniform positive shift whose
  // rate rises sharply during background-load bursts. All three draws come
  // from the measurement's one counter block (pure in the measurement index
  // — the batch tail evaluates the identical block).
  const double sigma_mean = timing_.access_noise_sigma_ns / std::sqrt(accesses);
  const counter_block blk =
      counter_.block(kMeasureNoiseDomain, measurement_count_);
  double observed = mean_base + sigma_mean * counter_gaussian(blk.v0);
  bool contaminated = false;
  if (counter_unit(blk.v2) < effective_contamination_at(clock_.now_ns())) {
    observed += counter_unit(blk.v3) * timing_.contamination_max_ns;
    contaminated = true;
  }

  // Charge the virtual clock for the whole measurement loop. Each access
  // charges a truncated integer, so the aggregate below equals a
  // per-access advance_ns sequence exactly — on any timing preset.
  const auto charge = [this](double base) {
    return static_cast<std::uint64_t>(base + timing_.clflush_ns +
                                      timing_.loop_overhead_ns);
  };
  clock_.advance_ns(t.hits * charge(timing_.row_hit_ns) +
                    t.closed * charge(timing_.row_closed_ns) +
                    t.conflicts * charge(timing_.row_conflict_ns));
  access_count_ += 2ull * rounds;
  ++measurement_count_;

  // The row-buffer state after an alternating loop: both banks hold the
  // last-touched rows (p2's row wins a shared bank, matching access order).
  open_rows_[d.bank1] = {d.row1, true};
  open_rows_[d.bank2] = {d.row2, true};

  return {std::max(1.0, observed), contaminated};
}

pair_measurement memory_controller::measure_pair(std::uint64_t p1,
                                                 std::uint64_t p2,
                                                 unsigned rounds) {
  DRAMDIG_EXPECTS(rounds > 0);
  return finish_measurement(decode_pair(p1, p2), rounds);
}

const memory_controller::decoded_soa& memory_controller::decode_pairs(
    std::span<const addr_pair> pairs) {
  const std::size_t n = 2 * pairs.size();
  decoded_soa& d = soa_;
  d.addr.resize(n);
  d.bank.resize(n);
  d.row.resize(n);
  // Whole-batch validation up front: a bad address anywhere rejects the
  // batch before any noise is drawn. The AoS->SoA split rides along.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    DRAMDIG_EXPECTS(pairs[i].first < truth_.memory_bytes() &&
                    pairs[i].second < truth_.memory_bytes());
    d.addr[2 * i] = pairs[i].first;
    d.addr[2 * i + 1] = pairs[i].second;
  }
  const auto& functions = truth_.bank_functions();
  decode_banks(d.addr.data(), n, functions.data(), functions.size(),
               d.bank.data());
  for (std::size_t i = 0; i < n; ++i) d.row[i] = d.addr[i] & row_mask_;
  return d;
}

void memory_controller::finish_batch_counter(
    const decoded_soa& d, unsigned rounds,
    std::vector<pair_measurement>& out) {
  const std::size_t n = d.addr.size() / 2;
  tail_.mean_base.resize(n);
  tail_.contam_p.resize(n);

  const double accesses = 2.0 * static_cast<double>(rounds);
  const double sigma_mean = timing_.access_noise_sigma_ns / std::sqrt(accesses);
  const auto charge = [this](double base) {
    return static_cast<std::uint64_t>(base + timing_.clflush_ns +
                                      timing_.loop_overhead_ns);
  };
  const std::uint64_t hit_charge = charge(timing_.row_hit_ns);
  const std::uint64_t closed_charge = charge(timing_.row_closed_ns);
  const std::uint64_t conflict_charge = charge(timing_.row_conflict_ns);

  // Sequential fold of everything state-carrying, in submission order: the
  // row-buffer table (a measurement's first touches see what the previous
  // measurement left open), the virtual-clock prefix (measurement i's
  // contamination rate is evaluated at the clock *before* its own charge —
  // exactly where finish_measurement reads it), and the lazy burst
  // schedule riding that monotone clock. No randomness is consumed here
  // beyond burst_rng_'s schedule draws, identical to the scalar sequence.
  const std::uint64_t base_index = measurement_count_;
  std::uint64_t clock_at = clock_.now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const decoded_pair dp{d.bank[2 * i], d.row[2 * i], d.bank[2 * i + 1],
                          d.row[2 * i + 1], 0.0};
    const access_tally t = tally_closed_form(dp, rounds);
    tail_.mean_base[i] =
        (static_cast<double>(t.hits) * timing_.row_hit_ns +
         static_cast<double>(t.closed) * timing_.row_closed_ns +
         static_cast<double>(t.conflicts) * timing_.row_conflict_ns) /
        accesses;
    tail_.contam_p[i] = effective_contamination_at(clock_at);
    clock_at += t.hits * hit_charge + t.closed * closed_charge +
                t.conflicts * conflict_charge;
    open_rows_[dp.bank1] = {dp.row1, true};
    open_rows_[dp.bank2] = {dp.row2, true};
  }
  clock_.advance_ns(clock_at - clock_.now_ns());
  access_count_ += n * 2ull * rounds;
  measurement_count_ += n;

  // Noise pass: element i is a pure function of (key, base+i) and the two
  // per-measurement scalars folded above.
  for (std::size_t i = 0; i < n; ++i) {
    const counter_block blk =
        counter_.block(kMeasureNoiseDomain, base_index + i);
    double observed =
        tail_.mean_base[i] + sigma_mean * counter_gaussian(blk.v0);
    bool contaminated = false;
    if (counter_unit(blk.v2) < tail_.contam_p[i]) {
      observed += counter_unit(blk.v3) * timing_.contamination_max_ns;
      contaminated = true;
    }
    out[i] = {std::max(1.0, observed), contaminated};
  }
}

void memory_controller::measure_pairs(std::span<const addr_pair> pairs,
                                      unsigned rounds,
                                      std::vector<pair_measurement>& out) {
  DRAMDIG_EXPECTS(rounds > 0);
  // Decode is a pure function of the address, so the staged SoA path agrees
  // bit for bit with a fused per-pair decode+finish loop.
  const decoded_soa& d = decode_pairs(pairs);
  out.resize(pairs.size());
  finish_batch_counter(d, rounds, out);
}

std::vector<pair_measurement> memory_controller::measure_pairs(
    std::span<const addr_pair> pairs, unsigned rounds) {
  std::vector<pair_measurement> results;
  measure_pairs(pairs, rounds, results);
  return results;
}

}  // namespace dramdig::sim
