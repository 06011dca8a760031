// Step 2 phase 2: physical-address partition (paper Algorithm 2) — its
// knobs and its outcome.
//
// The one entry point is bank_classifier::partition (core/classifier),
// called on the run's shared measurement plan: piles are first-class bank
// classes carrying row-distinct representatives, and each unassigned
// address is classified against one representative per open class — with
// a second-representative fallback for same-row misses and a fresh-pivot
// founder scan (the paper's pivot scan: measure a pivot against the
// remaining pool and peel off its same-bank pile) only to open new
// classes.
// Noise tolerance is built in twice, exactly as the paper describes: a
// pile is accepted only if its size is within 1 ± delta of pool/#banks,
// and the loop stops once per_threshold of the pool has been assigned
// (stragglers lost to misreads don't block termination). On top of the
// paper's description, positives from the single-sample scans are
// re-verified with min-filtered measurements before they can pollute a
// pile — cheap (piles are small) and the reason the detected functions
// stay deterministic on noisy machines.
#pragma once

#include <cstdint>
#include <vector>

namespace dramdig::core {

struct partition_config {
  double delta = 0.2;           ///< upper pile-size tolerance (paper: 0.2)
  /// Lower tolerance is wider than the paper's symmetric delta: a pile is
  /// "addresses SBDR with the pivot", which excludes the pivot's same-row
  /// mates (same bank, same row, different column). On machines whose wide
  /// channel function feeds several column bits those classes are up to a
  /// quarter of each bank's addresses, so with small designed pools a
  /// perfectly clean pile legitimately sits well below pool/#banks.
  /// (The representative engine recovers those addresses through its
  /// second-representative fallback, so its piles sit near pool/#banks.)
  double delta_lower = 0.4;
  double per_threshold = 0.85;  ///< stop when this fraction is partitioned
  unsigned max_pivot_attempts = 0;  ///< 0 = 4 * #banks + 32
  bool verify_positives = true;     ///< strict re-check of scan positives
};

/// Adaptive pivot pre-screen of full-pool founder scans: sample this many
/// unknown partners (scaled up on large pools) and reject the pivot before
/// the full scan when the projected pile size falls outside the delta
/// window beyond sampling error. Chiefly pays off when the assumed bank
/// count is wrong (the knowledge-ablation sweep) — every such pivot scan
/// is doomed, and the pre-screen prices that in at ~1/8 of a scan.
inline constexpr unsigned kPrescreenSample = 64;

struct partition_outcome {
  bool success = false;
  /// Piles of same-bank addresses; element 0 of each pile is its pivot.
  std::vector<std::vector<std::uint64_t>> piles;
  std::size_t partitioned = 0;  ///< addresses assigned to piles
  unsigned rejected_piles = 0;  ///< piles outside the delta window
  unsigned prescreen_rejections = 0;  ///< rejected before a full scan
  /// Partner verdicts answered from the measurement-reuse cache instead of
  /// fresh measurements, across every scan of this call.
  std::uint64_t reused_verdicts = 0;
  // --- Representative-engine accounting. ---
  std::uint64_t representative_votes = 0;  ///< single-sample votes cast
  std::uint64_t fallback_votes = 0;  ///< second-representative votes
  unsigned founder_scans = 0;        ///< pivot scans run to open classes
  unsigned group_founder_scans = 0;  ///< founder scans limited to a group
  /// Addresses assigned on their first, GF(2)-predicted vote or founder
  /// group scan (the knowledge-assisted fast path).
  std::uint64_t predicted_assignments = 0;
};

}  // namespace dramdig::core
