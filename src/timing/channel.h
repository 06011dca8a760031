// The timing primitive (paper Section III-B).
//
// Row-buffer conflicts make alternating access to two rows of the same bank
// measurably slower than any other address relationship. This wrapper
// turns the raw simulated latencies into the boolean the algorithms
// consume — "are these two physical addresses same-bank-different-row?" —
// via (1) calibration: sample random pairs, find the valley between the
// fast and slow modes; (2) measurement: batches of single-sample pair
// latencies, and the strict verdict, the minimum of strict_samples()
// latencies per pair against the calibrated threshold.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/memory_controller.h"
#include "util/rng.h"

namespace dramdig::timing {

struct channel_config {
  /// Accesses per address per measurement (the paper's tools hammer a pair
  /// thousands of times; 500 keeps the virtual-time budget realistic).
  unsigned rounds_per_measurement = 500;
  /// Budget ceiling on the random pairs sampled during threshold
  /// calibration. The calibrator samples in chunks and stops as soon as
  /// the valley estimate is stable over a sliding window of re-estimates,
  /// usually after a few hundred pairs.
  unsigned calibration_pairs = 1200;
  /// Minimum pairs before the first stability check: the valley estimator
  /// needs both latency modes populated before its output means anything.
  unsigned calibration_min_pairs = 300;
  /// Pairs sampled per adaptive chunk (one re-estimate per chunk).
  unsigned calibration_chunk = 150;
};

/// A random pair of distinct addresses from `pool`: draws two entries and
/// redraws both while they are equal. Throws contract_violation when the
/// pool holds no two distinct addresses, where the redraw would never end.
[[nodiscard]] sim::addr_pair draw_distinct_pair(
    std::span<const std::uint64_t> pool, rng& r);

class channel {
 public:
  channel(sim::memory_controller& controller, channel_config config, rng r);

  /// Calibrate the high/low decision threshold from random pairs drawn
  /// from `pool` (physical addresses). Returns the threshold in ns.
  ///
  /// `prior_ns` is a fleet warm start: a threshold recovered on a geometry
  /// sibling (mapping-store evidence); 0 means none. The threshold itself
  /// is ALWAYS computed from this machine's own samples — the prior only
  /// authorizes an earlier stop once a few consecutive local estimates
  /// agree both with each other and with the prior. A wrong prior never
  /// matches the local estimates, so it falls through to the normal
  /// adaptive schedule.
  double calibrate(const std::vector<std::uint64_t>& pool,
                   double prior_ns = 0.0);

  /// Single-sample mean latencies for a whole batch of pairs, serviced by
  /// the controller in one pass. Element i equals what a scalar
  /// measure_pair on pairs[i] would have returned at that point in the
  /// measurement sequence. `out` and the channel's internal scratch are
  /// reused, so the hot loops allocate nothing per call.
  void measure_batch(std::span<const sim::addr_pair> pairs,
                     std::vector<double>& out);

  /// Strict SBDR verdicts: the minimum of strict_samples() latencies per
  /// pair against the threshold, every pair measured in one controller
  /// pass. Timing noise in this channel is one-sided (events only inflate
  /// latency), so the minimum is the robust estimator; a pair is SBDR only
  /// if even its fastest observation conflicts. Used where a single false
  /// positive would corrupt the output.
  ///
  /// `prior` folds latencies the caller already measured on the same pairs
  /// into the filter: a non-NaN prior[i] stands in for one of pair i's
  /// samples, so that pair costs strict_samples() - 1 fresh measurements.
  /// An empty `prior` means no folded samples; a NaN entry means that pair
  /// has none.
  void is_sbdr_strict_batch(std::span<const sim::addr_pair> pairs,
                            std::span<const double> prior,
                            std::vector<char>& out);

  [[nodiscard]] double threshold_ns() const noexcept { return threshold_ns_; }
  [[nodiscard]] bool calibrated() const noexcept { return threshold_ns_ > 0; }
  /// Inject an externally derived threshold instead of calibrate() — the
  /// baselines compute their own cruder thresholds but still measure
  /// through this channel, so every tool shares one measurement substrate.
  void set_threshold(double ns);
  /// Pair samples the last calibrate() actually measured, summed across
  /// its sanity-check rounds.
  [[nodiscard]] std::uint64_t calibration_pairs_used() const noexcept {
    return calibration_pairs_used_;
  }
  /// Measurements the strict (min-filtered) verdict takes per pair —
  /// exposed so schedulers layered above can account and partially reuse.
  [[nodiscard]] static constexpr unsigned strict_samples() noexcept {
    return 5;
  }
  [[nodiscard]] sim::memory_controller& controller() noexcept {
    return controller_;
  }
  [[nodiscard]] const channel_config& config() const noexcept {
    return config_;
  }

  /// Raw calibration samples from the last calibrate() call (for the
  /// histogram example and tests).
  [[nodiscard]] const std::vector<double>& calibration_samples()
      const noexcept {
    return calibration_samples_;
  }

 private:
  /// One chunk of min-of-two calibration samples appended to
  /// calibration_samples_.
  void sample_calibration_chunk(const std::vector<std::uint64_t>& pool,
                                std::size_t pairs);

  sim::memory_controller& controller_;
  channel_config config_;
  rng rng_;
  double threshold_ns_ = 0.0;
  std::uint64_t calibration_pairs_used_ = 0;
  std::vector<double> calibration_samples_;
  // Batch scratch, reused across calls so the hot loops allocate nothing
  // once warm. pair_scratch_ holds the expanded pair list the strict batch
  // and calibration build; latency_scratch_ holds its latencies.
  std::vector<sim::pair_measurement> measurement_scratch_;
  std::vector<sim::addr_pair> pair_scratch_;
  std::vector<double> latency_scratch_;
};

}  // namespace dramdig::timing
