// The bank classification engine behind DRAMDig's Algorithm 2.
//
// Piles are first-class bank_class objects carrying a small set of
// row-distinct representatives drawn from strict-SBDR-verified members.
// Because an address can share a row with at most one of a class's
// pairwise row-distinct representatives, a same-row false negative can
// never mis-route an address: the second representative catches it.
//
// The representative driver classifies each unassigned address against
// one representative per open class (single-sample votes batched per
// round through the measurement plan, positives strict-verified before
// they can touch a pile), falling back to the second representative and
// only then to a fresh-pivot founder scan. What makes it cheap is the
// knowledge-assisted vote ordering: the strict-verified piles' XOR
// differences pin down the bank-function span (the same GF(2) null-space
// detect_functions uses), and once that span's dimension matches
// log2(#banks) it is provably exact — every address's bank id is then
// computable host-side, the first vote goes to the predicted class, and
// founder scans shrink from full-pool sweeps to the predicted group.
// Every assignment is still measurement-verified (strict min filter), so
// a defective prediction can cost measurements but never purity.
//
// Trusted rounds cost host time per live bucket, not per pool address:
// whenever the prediction re-decodes the pool's ids, the unassigned pool
// is bucketed by predicted id (pool order kept inside each bucket,
// assigned entries dropped lazily). A round's votes come from the open
// classes' buckets only, sorted back into pool order; the founder pick
// reads one candidate per class-less id (largest live bucket, ties to
// pool order); the founder scan's partners are the pick's own bucket.
// Pool order is kept, not swap-removed, because each measurement keys its
// noise on its batch index: vote and partner order are part of the result.
//
// The engine is built directly on core/measurement_plan: classes ARE the
// plan's union-find classes (representative verdicts merge and query
// them), vote negatives feed the plan's witness lists, and the plan's
// cross-pile proofs skip votes the cache already implies — so a
// directory that survives across calls (the bank-count sweep) re-resolves
// for free.
#pragma once

#include <cstdint>
#include <vector>

#include "core/measurement_plan.h"
#include "core/partition.h"
#include "util/gf2.h"
#include "util/rng.h"

namespace dramdig::core {

/// One same-bank class: members (element 0 is the founding pivot) plus
/// the row-distinct representatives that classify against it.
struct bank_class {
  std::vector<std::uint64_t> members;
  /// Pairwise row-distinct, strict-SBDR-verified; [0] is the pivot.
  std::vector<std::uint64_t> representatives;
};

class bank_classifier {
 public:
  explicit bank_classifier(measurement_plan& plan) : plan_(plan) {}

  /// Partition `pool` into same-bank piles (paper Algorithm 2 semantics:
  /// delta window on pile sizes, per_threshold stop). The class directory
  /// persists across calls until clear().
  [[nodiscard]] partition_outcome partition(std::vector<std::uint64_t> pool,
                                            unsigned bank_count, rng& r,
                                            const partition_config& config);

  [[nodiscard]] const std::vector<bank_class>& classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] measurement_plan& plan() noexcept { return plan_; }

  /// Fleet warm start: seed the knowledge-assisted prediction with a
  /// bank-function span recovered on a geometry sibling (the mapping
  /// store's evidence). The representative driver consults the hint only
  /// while the accreted pile differences cannot pin the span themselves —
  /// so trusted prediction (predicted first votes, group-limited founder
  /// scans) engages from round 0 instead of after several piles. Safety is
  /// unchanged: every assignment is still measurement-verified, so a wrong
  /// hint cannot fabricate piles — its group founder piles miss the delta
  /// window and the call fails. The hint stays installed until clear(),
  /// which the pipeline's attempt retry calls (a wrong hint costs
  /// measurements and an attempt, never purity).
  void warm_start(gf2::matrix span_hint) { warm_span_ = std::move(span_hint); }
  /// True while a hint is installed.
  [[nodiscard]] bool warm_hint_active() const noexcept {
    return !warm_span_.empty();
  }

  /// Drop the class directory (pairs with measurement_plan::reset() in the
  /// pipeline's retry loop: a poisoned merge must not outlive its attempt).
  /// Also drops any warm-start hint: a failed attempt is exactly the
  /// signal that imported evidence may be wrong for this machine.
  void clear() {
    classes_.clear();
    warm_span_.clear();
  }

 private:
  measurement_plan& plan_;
  std::vector<bank_class> classes_;
  /// Warm-start span hint (see warm_start).
  gf2::matrix warm_span_;
};

}  // namespace dramdig::core
