#include "baselines/drama.h"

#include <algorithm>
#include <bit>
#include <set>

#include "core/probe_util.h"
#include "timing/channel.h"
#include "util/bitops.h"
#include "util/combinatorics.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/histogram.h"
#include "util/log.h"

namespace dramdig::baselines {

namespace {

/// DRAMA's cruder threshold: modal latency of random pairs x a factor.
/// Pair draws are independent of the measurements, so the batch is drawn
/// up front and serviced in one channel pass — bit-identical samples to
/// the original scalar measure_pair loop.
double drama_threshold(timing::channel& channel,
                       const std::vector<std::uint64_t>& pool,
                       unsigned calibration_pairs, double factor, rng& r) {
  std::vector<sim::addr_pair> pairs;
  pairs.reserve(calibration_pairs);
  for (unsigned i = 0; i < calibration_pairs; ++i) {
    const std::uint64_t a = pool[r.below(pool.size())];
    const std::uint64_t b = pool[r.below(pool.size())];
    if (a == b) {
      --i;
      continue;
    }
    pairs.emplace_back(a, b);
  }
  const std::vector<double> samples = channel.measure_batch(pairs);
  histogram h(0.0, 700.0, 140);
  h.add_all(samples);
  return h.bin_center(h.mode_bin()) * factor;
}

/// DRAMA's published mask acceptance: a statistical pre-filter (a random
/// non-function mask violates ~50% of a set; 11+ minority hits in a
/// 32-member sample already puts it beyond any tolerance this search
/// accepts, while a true function under realistic pollution essentially
/// never trips it), then majority parity per set with a per-set violation
/// cap, an aggregate violation tolerance, and the discrimination
/// requirement (both parities must occur across sets). Shared verbatim by
/// the brute-force sweep and the null-space ablation so the two paths
/// differ only in how candidates are generated.
bool mask_accepted(std::uint64_t mask,
                   const std::vector<std::vector<std::uint64_t>>& sets,
                   std::size_t total_addresses, const drama_config& cfg) {
  for (const auto& s : sets) {
    const std::size_t probe = std::min<std::size_t>(32, s.size());
    std::size_t ones = 0;
    for (std::size_t i = 0; i < probe; ++i) ones += parity(s[i], mask);
    if (std::min(ones, probe - ones) >= 11) return false;
  }
  std::size_t total_violations = 0;
  bool saw_zero = false, saw_one = false;
  for (const auto& s : sets) {
    // Majority parity per set, counting the minority as violations.
    std::size_t ones = 0;
    for (std::uint64_t a : s) ones += parity(a, mask);
    const std::size_t minority = std::min(ones, s.size() - ones);
    if (static_cast<double>(minority) >
        cfg.per_set_violation_cap * static_cast<double>(s.size())) {
      return false;  // hopeless in this set
    }
    total_violations += minority;
    (ones * 2 > s.size() ? saw_one : saw_zero) = true;
  }
  if (static_cast<double>(total_violations) >
      cfg.violation_tolerance * static_cast<double>(total_addresses)) {
    return false;
  }
  // A function must discriminate: both parities across sets.
  return saw_zero && saw_one;
}

/// DRAMA's clustering: repeatedly pick a random base and peel its
/// single-sample positives off the remaining pool until it shrinks to
/// `stop_remaining` (at most 100 sweeps) — no verification, no size
/// window, no reuse cache (the original remeasures everything), and sets
/// below `min_set_size` dropped with their members consumed, which is
/// exactly how the original tool loses banks. Each sweep is one channel
/// batch. Returned sets hold their base address at [0].
std::vector<std::vector<std::uint64_t>> peel(timing::channel& channel,
                                             std::vector<std::uint64_t> pool,
                                             rng& r, std::size_t stop_remaining,
                                             std::size_t min_set_size) {
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<std::uint64_t> partners;
  std::vector<std::uint64_t> rest;
  std::vector<char> member;
  for (unsigned sweep = 0; pool.size() > stop_remaining && sweep < 100;
       ++sweep) {
    const std::size_t base_idx = r.below(pool.size());
    const std::uint64_t base = pool[base_idx];
    partners.clear();
    partners.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i != base_idx) partners.push_back(pool[i]);
    }
    channel.is_sbdr_fast_batch(base, partners, member);
    std::vector<std::uint64_t> set{base};
    rest.clear();
    rest.reserve(partners.size());
    for (std::size_t j = 0; j < partners.size(); ++j) {
      (member[j] ? set : rest).push_back(partners[j]);
    }
    std::swap(pool, rest);
    if (set.size() >= min_set_size) sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace

drama_tool::drama_tool(core::environment& env, drama_config config)
    : env_(env), config_(config) {
  DRAMDIG_EXPECTS(config_.pool_size >= 64);
  DRAMDIG_EXPECTS(config_.max_function_bits >= 1);
}

drama_trial drama_tool::run_trial(const os::mapping_region& buffer, rng& r) {
  auto& mc = env_.mach().controller();
  drama_trial trial;

  // Random pool — no structure, no knowledge.
  std::vector<std::uint64_t> pool =
      core::sample_addresses(buffer, config_.pool_size, r);
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // One measurement substrate for every tool: DRAMA measures through the
  // timing channel, but keeps its published behavior — single-sample
  // verdicts against its own crude threshold, no verification.
  timing::channel channel(
      mc,
      {.rounds_per_measurement = config_.rounds_per_measurement,
       .samples_per_latency = 1,
       .calibration_pairs = config_.calibration_pairs},
      rng(config_.tool_seed ^ 0xD4A2Au));
  channel.set_threshold(drama_threshold(channel, pool,
                                        config_.calibration_pairs,
                                        config_.threshold_factor, r));

  // --- Clustering: peel same-bank sets with single-sample sweeps. --------
  const std::vector<std::vector<std::uint64_t>> sets =
      peel(channel, std::move(pool), r, config_.pool_size / 10,
           config_.min_set_size);
  trial.set_count = sets.size();
  if (sets.size() < 2) return trial;

  // --- Brute force over all physical-address bits. -----------------------
  const unsigned max_bit = std::min<unsigned>(
      config_.max_candidate_bit, log2_exact(env_.spec().memory_bytes) - 1);
  std::vector<unsigned> positions;
  for (unsigned b = 6; b <= max_bit; ++b) positions.push_back(b);

  std::size_t total_addresses = 0;
  for (const auto& s : sets) total_addresses += s.size();

  std::vector<std::uint64_t> candidates;
  std::uint64_t cpu_work = 0;  ///< charged to the virtual clock per unit
  if (config_.use_nullspace) {
    // The algebra ablation: a mask is constant on a clean set iff it
    // annihilates each member's XOR difference to the set's pivot, so the
    // candidate space is the null space of a difference matrix restricted
    // to the candidate bits. Single-sample clustering leaves ~1% polluted
    // members even on clean machines, and one polluted difference ejects a
    // true function from a strict null space — so the differences are
    // split into deterministic index-group assemblies (each set member
    // joins group j mod G), one null space per assembly, and the published
    // acceptance filter arbitrates the union of the spans. A polluted
    // member corrupts only its own assembly; the clean assemblies recover
    // every mask the filter tolerates, while the filter still rejects any
    // spurious span member, so the candidate set matches the brute-force
    // sweep's (brute force additionally burns CPU on the ~2^20 masks that
    // never came close).
    std::uint64_t support = 0;
    for (unsigned b : positions) support |= std::uint64_t{1} << b;
    std::size_t smallest_set = sets.front().size();
    for (const auto& s : sets) smallest_set = std::min(smallest_set, s.size());
    // Enough members per group for each assembly to pin the null space,
    // enough groups to quarantine the polluted minority.
    const std::size_t assemblies =
        std::clamp<std::size_t>(smallest_set / 4, 4, 32);
    std::set<std::uint64_t> tested, accepted;
    for (std::size_t g = 0; g < assemblies; ++g) {
      gf2::matrix diffs;
      for (const auto& s : sets) {
        bool have_pivot = false;
        std::uint64_t pivot = 0;
        for (std::size_t j = g; j < s.size(); j += assemblies) {
          if (!have_pivot) {
            pivot = s[j];
            have_pivot = true;
          } else {
            diffs.push_back((s[j] ^ pivot) & support);
          }
        }
      }
      if (diffs.empty()) continue;
      const gf2::matrix basis = gf2::nullspace(diffs, support);
      cpu_work += diffs.size();  // one row reduction per difference
      // An under-determined assembly would explode the span; skip it (the
      // other assemblies carry the trial).
      if (basis.size() > 16) continue;
      for (std::uint64_t mask : gf2::enumerate_span(basis)) {
        ++cpu_work;
        if (static_cast<unsigned>(std::popcount(mask)) >
            config_.max_function_bits) {
          continue;  // the sweep never considers wider masks
        }
        if (!tested.insert(mask).second) continue;
        if (mask_accepted(mask, sets, total_addresses, config_)) {
          accepted.insert(mask);
        }
      }
    }
    candidates.assign(accepted.begin(), accepted.end());
  } else {
    for_each_bit_combination(
        positions, 1, config_.max_function_bits, [&](std::uint64_t mask) {
          ++cpu_work;
          if (mask_accepted(mask, sets, total_addresses, config_)) {
            candidates.push_back(mask);
          }
          return true;
        });
  }
  mc.clock().advance_ns(static_cast<std::uint64_t>(
      static_cast<double>(cpu_work) * config_.cpu_ns_per_mask));

  // Minimal-weight basis for reporting; echelon form for run-to-run
  // comparison (two trials agree iff they found the same span). DRAMA has
  // no bank-count knowledge to validate against, so "valid" just means the
  // search produced a usable function set.
  trial.functions = gf2::minimal_basis(candidates);
  trial.canonical = gf2::row_echelon(trial.functions);
  trial.valid = trial.functions.size() >= 2;
  return trial;
}

drama_report drama_tool::run() {
  auto& mc = env_.mach().controller();
  drama_report report;
  rng r(env_.seed() ^ (config_.tool_seed * 0xD4A2Au + 0x9e3779b9u));

  const std::uint64_t t0 = mc.clock().now_ns();
  const std::uint64_t m0 = mc.measurement_count();

  const std::uint64_t buffer_bytes =
      std::min<std::uint64_t>(config_.buffer_bytes,
                              env_.spec().memory_bytes * 2 / 5);
  const os::mapping_region& buffer = env_.space().map_buffer(buffer_bytes);

  std::optional<std::vector<std::uint64_t>> prev_valid_functions;
  for (unsigned t = 0; t < config_.max_trials; ++t) {
    if (config_.should_abort && config_.should_abort()) {
      report.aborted = true;
      break;
    }
    if (mc.clock().seconds_since(t0) > config_.timeout_seconds) {
      report.timed_out = true;
      break;
    }
    const std::uint64_t trial_t0 = mc.clock().now_ns();
    const std::uint64_t trial_m0 = mc.measurement_count();
    report.trials.push_back(run_trial(buffer, r));
    ++report.trials_run;
    if (config_.on_phase) {
      config_.on_phase("trial",
                       core::phase_stats{mc.clock().seconds_since(trial_t0),
                                         mc.measurement_count() - trial_m0, 0});
    }
    const drama_trial& cur = report.trials.back();
    log_info("drama: trial " + std::to_string(t) + " sets=" +
             std::to_string(cur.set_count) + " funcs=" +
             std::to_string(cur.functions.size()) +
             (cur.valid ? " (valid)" : " (invalid)"));
    if (cur.valid && prev_valid_functions &&
        cur.canonical == *prev_valid_functions) {
      report.completed = true;
      report.functions = cur.functions;
      break;
    }
    prev_valid_functions =
        cur.valid ? std::optional(cur.canonical) : std::nullopt;
  }
  if (!report.completed) {
    if (mc.clock().seconds_since(t0) > config_.timeout_seconds) {
      report.timed_out = true;
    }
    // Best effort: the most recent valid trial, else the last trial.
    for (auto it = report.trials.rbegin(); it != report.trials.rend(); ++it) {
      if (it->valid) {
        report.functions = it->functions;
        break;
      }
    }
    if (report.functions.empty() && !report.trials.empty()) {
      report.functions = report.trials.back().functions;
    }
  }

  if (!report.functions.empty()) {
    report.mapping = drama_hypothesis(report.functions,
                                      log2_exact(env_.spec().memory_bytes));
  }
  report.total_seconds = mc.clock().seconds_since(t0);
  report.total_measurements = mc.measurement_count() - m0;
  return report;
}

dram::address_mapping drama_hypothesis(
    const std::vector<std::uint64_t>& functions, unsigned address_bits) {
  DRAMDIG_EXPECTS(!functions.empty());
  // DRAMA-based attacks assume 8 KiB rows: 13 column bits at the bottom,
  // rows on top, with as many row bits as the function count leaves over.
  const unsigned rank = static_cast<unsigned>(gf2::rank(functions));
  const unsigned column_bits = 13;
  const unsigned row_bits =
      address_bits > column_bits + rank ? address_bits - column_bits - rank : 1;
  std::vector<unsigned> rows, cols;
  for (unsigned b = address_bits - row_bits; b < address_bits; ++b) {
    rows.push_back(b);
  }
  for (unsigned b = 0; b < column_bits && b < address_bits - row_bits; ++b) {
    cols.push_back(b);
  }
  return dram::address_mapping(functions, rows, cols, address_bits);
}

}  // namespace dramdig::baselines
