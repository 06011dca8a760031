#include "baselines/drama.h"

#include <algorithm>

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

/// Bytes mapped for the random pool (1 GiB, capped at 40% of memory).
constexpr std::uint64_t kBufferBytes = std::uint64_t{1} << 30;
/// Long hammer loops per pair measurement.
constexpr unsigned kRoundsPerMeasurement = 4000;
/// Threshold = modal calibration latency x this factor.
constexpr double kThresholdFactor = 1.35;
/// Aggregate minority fraction a function may show over all sets.
constexpr double kViolationTolerance = 0.05;
/// Minority fraction above which one set alone rejects a mask.
constexpr double kPerSetViolationCap = 0.25;
/// Widest XOR function the brute force enumerates.
constexpr unsigned kMaxFunctionBits = 7;
/// Highest physical-address bit a candidate mask may use.
constexpr unsigned kMaxCandidateBit = 33;
/// Peeled sets below this size are dropped with their members consumed.
constexpr std::size_t kMinSetSize = 30;
/// Virtual CPU cost of testing one candidate mask.
constexpr double kCpuNsPerMask = 1500.0;

/// DRAMA's cruder threshold: modal latency of random pairs x a factor.
/// Pair draws are independent of the measurements, so the batch is drawn
/// up front and serviced in one channel pass — bit-identical samples to
/// the original scalar measure_pair loop.
double drama_threshold(timing::channel& channel,
                       const std::vector<std::uint64_t>& pool,
                       unsigned calibration_pairs, rng& r) {
  std::vector<sim::addr_pair> pairs;
  pairs.reserve(calibration_pairs);
  for (unsigned i = 0; i < calibration_pairs; ++i) {
    pairs.push_back(timing::draw_distinct_pair(pool, r));
  }
  std::vector<double> samples;
  channel.measure_batch(pairs, samples);
  histogram h(0.0, 700.0, 140);
  h.add_all(samples);
  return h.bin_center(h.mode_bin()) * kThresholdFactor;
}

/// DRAMA's published mask acceptance: a statistical pre-filter (a random
/// non-function mask violates ~50% of a set; 11+ minority hits in a
/// 32-member sample already puts it beyond any tolerance this search
/// accepts, while a true function under realistic pollution essentially
/// never trips it), then majority parity per set with a per-set violation
/// cap, an aggregate violation tolerance, and the discrimination
/// requirement (both parities must occur across sets).
bool mask_accepted(std::uint64_t mask,
                   const std::vector<std::vector<std::uint64_t>>& sets,
                   std::size_t total_addresses) {
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
        kPerSetViolationCap * static_cast<double>(s.size())) {
      return false;  // hopeless in this set
    }
    total_violations += minority;
    (ones * 2 > s.size() ? saw_one : saw_zero) = true;
  }
  if (static_cast<double>(total_violations) >
      kViolationTolerance * static_cast<double>(total_addresses)) {
    return false;
  }
  // A function must discriminate: both parities across sets.
  return saw_zero && saw_one;
}

/// DRAMA's clustering: repeatedly pick a random base and peel its
/// single-sample positives off the remaining pool until it shrinks to
/// `stop_remaining` (at most 100 sweeps) — no verification, no size
/// window, no reuse cache (the original remeasures everything), and sets
/// below kMinSetSize dropped with their members consumed, which is
/// exactly how the original tool loses banks. Each sweep is one channel
/// batch of (base, partner) pairs compared against the threshold.
/// Returned sets hold their base address at [0].
std::vector<std::vector<std::uint64_t>> peel(timing::channel& channel,
                                             std::vector<std::uint64_t> pool,
                                             rng& r,
                                             std::size_t stop_remaining) {
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<sim::addr_pair> pairs;
  std::vector<double> latency;
  std::vector<std::uint64_t> rest;
  for (unsigned sweep = 0; pool.size() > stop_remaining && sweep < 100;
       ++sweep) {
    const std::size_t base_idx = r.below(pool.size());
    const std::uint64_t base = pool[base_idx];
    pairs.clear();
    pairs.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i != base_idx) pairs.emplace_back(base, pool[i]);
    }
    channel.measure_batch(pairs, latency);
    std::vector<std::uint64_t> set{base};
    rest.clear();
    rest.reserve(pairs.size());
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      const bool member = latency[j] > channel.threshold_ns();
      (member ? set : rest).push_back(pairs[j].second);
    }
    std::swap(pool, rest);
    if (set.size() >= kMinSetSize) sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace

void check_config(const drama_config& config) {
  DRAMDIG_EXPECTS(config.pool_size >= 64);
}

drama_tool::drama_tool(core::environment& env, drama_config config)
    : env_(env), config_(config) {
  check_config(config_);
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
      {.rounds_per_measurement = kRoundsPerMeasurement,
       .calibration_pairs = config_.calibration_pairs},
      rng(config_.tool_seed ^ 0xD4A2Au));
  channel.set_threshold(
      drama_threshold(channel, pool, config_.calibration_pairs, r));

  // --- Clustering: peel same-bank sets with single-sample sweeps. --------
  const std::vector<std::vector<std::uint64_t>> sets =
      peel(channel, std::move(pool), r, config_.pool_size / 10);
  trial.set_count = sets.size();
  if (sets.size() < 2) return trial;

  // --- Brute force over all physical-address bits. -----------------------
  const unsigned max_bit = std::min<unsigned>(
      kMaxCandidateBit, log2_exact(env_.spec().memory_bytes) - 1);
  std::vector<unsigned> positions;
  for (unsigned b = 6; b <= max_bit; ++b) positions.push_back(b);

  std::size_t total_addresses = 0;
  for (const auto& s : sets) total_addresses += s.size();

  std::vector<std::uint64_t> candidates;
  std::uint64_t cpu_work = 0;  ///< charged to the virtual clock per mask
  for_each_bit_combination(
      positions, 1, kMaxFunctionBits, [&](std::uint64_t mask) {
        ++cpu_work;
        if (mask_accepted(mask, sets, total_addresses)) {
          candidates.push_back(mask);
        }
        return true;
      });
  mc.clock().advance_ns(static_cast<std::uint64_t>(
      static_cast<double>(cpu_work) * kCpuNsPerMask));

  // Minimal-weight basis for reporting; echelon form for run-to-run
  // comparison (two trials agree iff they found the same span). DRAMA has
  // no bank-count knowledge to validate against, so "valid" just means the
  // search produced a usable function set.
  trial.functions = gf2::minimal_basis(candidates);
  trial.canonical = gf2::row_echelon(trial.functions);
  trial.valid = trial.functions.size() >= 2;
  return trial;
}

core::tool_result drama_tool::run(const core::phase_callback& on_phase) {
  auto& mc = env_.mach().controller();
  core::run_meter meter(mc, on_phase);
  rng r(env_.seed() ^ (config_.tool_seed * 0xD4A2Au + 0x9e3779b9u));

  const std::uint64_t buffer_bytes =
      std::min<std::uint64_t>(kBufferBytes,
                              env_.spec().memory_bytes * 2 / 5);
  const os::mapping_region& buffer = env_.space().map_buffer(buffer_bytes);

  bool completed = false;  ///< two consecutive agreeing valid trials
  bool timed_out = false;
  unsigned trials = 0;
  std::vector<std::uint64_t> functions;     ///< the agreed trial's output
  std::vector<std::uint64_t> latest_valid;  ///< newest valid trial's output
  std::vector<std::uint64_t> last;          ///< newest trial's output
  std::optional<std::vector<std::uint64_t>> prev_valid_functions;
  for (unsigned t = 0; t < config_.max_trials; ++t) {
    if (meter.totals().seconds > config_.timeout_seconds) {
      timed_out = true;
      break;
    }
    drama_trial cur;
    {
      const core::run_meter::scope trial(meter, "trial");
      cur = run_trial(buffer, r);
    }
    ++trials;
    log_info("drama: trial " + std::to_string(t) + " sets=" +
             std::to_string(cur.set_count) + " funcs=" +
             std::to_string(cur.functions.size()) +
             (cur.valid ? " (valid)" : " (invalid)"));
    if (cur.valid && prev_valid_functions &&
        cur.canonical == *prev_valid_functions) {
      completed = true;
      functions = cur.functions;
      break;
    }
    prev_valid_functions =
        cur.valid ? std::optional(cur.canonical) : std::nullopt;
    if (cur.valid) latest_valid = cur.functions;
    last = std::move(cur.functions);
  }
  if (!completed) {
    if (meter.totals().seconds > config_.timeout_seconds) timed_out = true;
    // Best effort: the most recent valid trial, else the last trial.
    functions = latest_valid.empty() ? last : latest_valid;
  }

  core::tool_result out;
  out.tool = "drama";
  out.success = completed;
  if (!functions.empty()) {
    out.mapping =
        drama_hypothesis(functions, log2_exact(env_.spec().memory_bytes));
  }
  out.outcome = completed   ? "completed"
                : timed_out ? "timeout"
                            : "no agreement";
  out.detail = std::to_string(trials) + " trials";
  if (!completed) {
    out.failure_reason = timed_out
                             ? "budget expired without two agreeing trials"
                             : "no two consecutive trials agreed";
  }
  meter.finish(out);
  out.phases = {{"trials", out.virtual_seconds, out.measurement_count, 0}};
  return out;
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
