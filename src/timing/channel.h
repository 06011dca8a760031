// The timing primitive (paper Section III-B).
//
// Row-buffer conflicts make alternating access to two rows of the same bank
// measurably slower than any other address relationship. This wrapper
// turns the raw simulated latencies into the boolean the algorithms
// consume — "are these two physical addresses same-bank-different-row?" —
// via (1) calibration: sample random pairs, find the valley between the
// fast and slow modes; (2) measurement: median-of-k pair latencies against
// the calibrated threshold.
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
  /// Independent measurements medianed per latency() call.
  unsigned samples_per_latency = 3;
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

  /// Median-filtered pair latency in ns.
  [[nodiscard]] double latency(std::uint64_t p1, std::uint64_t p2);

  /// The paper's `latency(p, p') == high` predicate.
  [[nodiscard]] bool is_sbdr(std::uint64_t p1, std::uint64_t p2);

  /// Cheap single-sample variant used inside the O(pool * banks) partition
  /// loop, where the pile-size tolerance absorbs rare misreads.
  [[nodiscard]] bool is_sbdr_fast(std::uint64_t p1, std::uint64_t p2);

  /// Contamination-proof variant: minimum of `samples_per_latency + 2`
  /// measurements. Timing noise in this channel is one-sided (events only
  /// inflate latency), so the minimum is the robust estimator; a pair is
  /// SBDR only if even its fastest observation conflicts. Used where a
  /// single false positive would corrupt the output (fine-grained
  /// shared-bit acceptance).
  [[nodiscard]] bool is_sbdr_strict(std::uint64_t p1, std::uint64_t p2);

  /// Single-sample mean latencies for a whole batch of pairs, serviced by
  /// the controller in one pass. Element i equals what a scalar
  /// measure_pair on pairs[i] would have returned at that point in the
  /// measurement sequence. The out-param form reuses the caller's buffer
  /// (and the channel's internal scratch) so the partition/probe hot loops
  /// allocate nothing per call; the returning form is a convenience
  /// wrapper.
  void measure_batch(std::span<const sim::addr_pair> pairs,
                     std::vector<double>& out);
  [[nodiscard]] std::vector<double> measure_batch(
      std::span<const sim::addr_pair> pairs);

  /// Batched fast predicate: one single-sample verdict per partner,
  /// measured against the shared pivot. Identical results (and identical
  /// simulated-noise consumption) to calling is_sbdr_fast(pivot, partner)
  /// in partner order — this is the partition fast-scan workhorse.
  void is_sbdr_fast_batch(std::uint64_t pivot,
                          std::span<const std::uint64_t> partners,
                          std::vector<char>& out);
  [[nodiscard]] std::vector<char> is_sbdr_fast_batch(
      std::uint64_t pivot, std::span<const std::uint64_t> partners);

  /// Batched strict predicate: each pair gets `samples_per_latency + 2`
  /// measurements in one controller pass; the min-filter verdict per pair
  /// matches a scalar is_sbdr_strict call sequence.
  void is_sbdr_strict_batch(std::span<const sim::addr_pair> pairs,
                            std::vector<char>& out);
  [[nodiscard]] std::vector<char> is_sbdr_strict_batch(
      std::span<const sim::addr_pair> pairs);

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
  /// Measurements the strict (min-filtered) predicate takes per pair —
  /// exposed so schedulers layered above can account and partially reuse.
  [[nodiscard]] unsigned strict_samples() const noexcept {
    return config_.samples_per_latency + 2;
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
  /// calibration_samples_; returns the number of pairs measured.
  std::size_t sample_calibration_chunk(const std::vector<std::uint64_t>& pool,
                                       std::size_t pairs);

  sim::memory_controller& controller_;
  channel_config config_;
  rng rng_;
  double threshold_ns_ = 0.0;
  std::uint64_t calibration_pairs_used_ = 0;
  std::vector<double> calibration_samples_;
  // Batch scratch, reused across calls so the hot loops allocate nothing
  // once warm. pair_scratch_ holds the expanded pair list the fast/strict
  // wrappers build; the others hold intermediate measurement results.
  std::vector<sim::pair_measurement> measurement_scratch_;
  std::vector<sim::addr_pair> pair_scratch_;
  std::vector<double> latency_scratch_;
};

}  // namespace dramdig::timing
