// The measurement-reuse scheduler: a persistent pair-verdict cache that
// sits between the pipeline stages (partition, coarse/fine votes) and the
// timing channel, so that no measurement budget is spent re-deriving a
// relation the tool already proved.
//
// Same-bank is an equivalence relation, and the channel's verdicts carry
// it: a strict (min-filtered) SBDR positive proves two addresses share a
// bank, so their classes merge in a union-find. Negatives are subtler — a
// negative only proves "different bank OR same row as the measuring
// pivot" — so they are recorded as per-address witness lists and promoted
// to a cross-bank proof only when it is airtight:
//  * the exact pair was measured before (reusing that verdict verbatim), or
//  * the address measured negative against two witnesses of the class that
//    are SBDR-positive with each other. Two positives mean two different
//    rows; an address cannot share a row with both, so the only remaining
//    explanation is a different bank.
// Every future pivot scan pre-filters its partner list down to pairs whose
// relation is not already implied. The scan a rejected pivot paid for is
// never wasted again: the next pivot drawn from the same (now accreted)
// class gets the members for free, and by the second re-scan the witness
// pairs make the negatives free too — measured work per scan drops
// superlinearly as classes accrete.
//
// Only strict verdicts merge classes or serve as the positive witness
// links: single-sample scan positives can be contamination and stay
// scan-local until verified (contamination is one-sided, so single-sample
// *negatives* are reliable enough to act as witnesses).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/plan_index.h"
#include "timing/channel.h"
#include "util/union_find.h"

namespace dramdig::core {

/// Cached relation between two physical addresses.
enum class pair_relation : unsigned char {
  unknown,    ///< never measured, directly or transitively
  same_bank,  ///< classes merged by strict positives
  cross_pile, ///< proven not-SBDR (exact pair, or two row-distinct witnesses)
};

struct plan_config {
  /// Per-address cap on the negative-witness lists, evicted LRU (the
  /// entry that least recently answered or was recorded goes first).
  /// Eviction only forgets a cached fact — the relation is re-measured if
  /// it ever matters again — so a long-lived service embedding the plan
  /// trades a bounded memory footprint for occasional re-measurement.
  /// 0 = unbounded (the pre-cap behavior). The default comfortably holds
  /// one rejecting pivot per bank on every paper machine.
  std::size_t max_witnesses = 96;
};

struct plan_stats {
  std::uint64_t measurements_issued = 0;  ///< sent to the controller
  /// Verdicts answered from the cache, valued at what re-measuring them in
  /// place would have cost. Repeat scans re-count their reuse — an
  /// activity meter, not a cross-run delta.
  std::uint64_t measurements_saved = 0;
  std::uint64_t classes_merged = 0;
  std::uint64_t negatives_recorded = 0;   ///< witness entries added
  std::uint64_t prescreen_rejections = 0;  ///< pivots rejected from a sample
  std::uint64_t witnesses_evicted = 0;  ///< LRU drops (plan_config::max_witnesses)
};

/// Pile-size acceptance window for a pivot scan (counts include the
/// pivot), used by the adaptive pre-screen to project whether a full scan
/// is worth paying for.
struct scan_window {
  double lo = 0.0;
  double hi = 0.0;
};

/// Options for one partition pivot scan.
struct scan_options {
  bool verify_positives = true;  ///< strict re-check of scan positives
  /// Pre-screen: sample this many unknown partners first and reject the
  /// pivot early when the projected pile size falls outside the window
  /// beyond sampling error. 0 disables the pre-screen.
  unsigned prescreen_sample = 0;
  /// Confidence multiplier for the pre-screen's binomial slack; rejections
  /// only fire when the projection is wrong beyond z standard deviations
  /// (plus one count of slack), so in-window pivots are almost never lost.
  double prescreen_z = 2.5;
  scan_window window;
};

class measurement_plan {
 public:
  explicit measurement_plan(timing::channel& channel, plan_config config = {});

  [[nodiscard]] timing::channel& channel() noexcept { return channel_; }
  [[nodiscard]] const plan_config& config() const noexcept { return config_; }
  [[nodiscard]] const plan_stats& stats() const noexcept { return stats_; }

  /// Relation currently implied by the cache (never measures).
  [[nodiscard]] pair_relation relation(std::uint64_t a, std::uint64_t b);

  /// SBDR verdicts with designed-probe economics (the bit-probe engine's
  /// vote workhorse). Per pair: the exact-pair strict memo or an airtight
  /// cross-pile proof answers from the cache (same-bank class facts are
  /// deliberately NOT consulted — SBDR also needs row-distinct, which the
  /// union-find cannot certify, while a proven cross-bank pair can never
  /// conflict, so only negatives derive); unknown pairs get one single
  /// sample, and because noise is one-sided a fast reading alone proves
  /// the strict verdict negative — only slow readings graduate to strict
  /// verification, with the vote sample folded into the min filter.
  /// Every verdict is recorded (memo, merges, witness entries). Pairs must
  /// be distinct within one call.
  struct probe_outcome {
    std::vector<char> sbdr;    ///< per-pair majority-grade SBDR verdict
    std::uint64_t reused = 0;  ///< verdicts answered from the cache
  };
  [[nodiscard]] probe_outcome probe_pairs(std::span<const sim::addr_pair> pairs);

  /// One partition pivot scan: classify every partner as pile member or
  /// not. Cached relations are answered for free; unknown partners get a
  /// single-sample scan (optionally pre-screened), positives are
  /// strict-verified, and every verdict feeds the cache.
  struct scan_outcome {
    /// Per-partner membership verdict; meaningless when prescreen_rejected.
    std::vector<char> member;
    bool prescreen_rejected = false;
    std::uint64_t reused = 0;  ///< partner verdicts answered from the cache
  };
  [[nodiscard]] scan_outcome classify_partners(
      std::uint64_t pivot, std::span<const std::uint64_t> partners,
      const scan_options& options);

  /// One round of representative votes: each pair is (anchor, subject) —
  /// the anchor acting as the measuring pivot — and the verdict is "are
  /// they same-bank?". Cached relations answer for free, unknown pairs
  /// get a single-sample measurement in one channel batch, positives are
  /// strict-verified (min filter folding the vote sample) and every
  /// verdict feeds the cache: confirmed pairs merge classes, negatives
  /// put the anchor on the subject's witness list. This is the
  /// classification engine's per-address workhorse (core/classifier).
  struct vote_outcome {
    std::vector<char> member;  ///< per-pair same-bank verdict
    std::uint64_t reused = 0;  ///< verdicts answered from the cache
  };
  [[nodiscard]] vote_outcome classify_pairs(
      std::span<const sim::addr_pair> pairs, bool verify_positives);

  /// Distinct same-bank classes currently tracked (for tests/benches).
  [[nodiscard]] std::size_t class_count() const noexcept {
    return uf_.set_count();
  }

  /// Union-find root of the address's same-bank class, or no_class when
  /// the address was never seen. Roots are stable only until the next
  /// merge — callers snapshot and compare within one measurement-free
  /// pass (the classifier's free-assignment stage).
  static constexpr std::size_t no_class = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t class_root(std::uint64_t addr);

  /// True when the strict memo already proves the pair SBDR-positive
  /// (hence same-bank AND row-distinct). Never measures.
  [[nodiscard]] bool known_strict_positive(std::uint64_t a, std::uint64_t b)
      const;

  /// What answering one partner verdict from the cache is worth, in
  /// measurements: the fast sample plus (when positives are verified) the
  /// strict re-check — minus the scan sample the min filter folds back
  /// in. The single source of truth for this formula, shared by the
  /// scan/vote paths and engines layered above the plan.
  [[nodiscard]] std::uint64_t saved_scan_credit(
      bool verify_positives) const noexcept {
    return 1 + (verify_positives ? channel_.strict_samples() - 1 : 0);
  }

  /// Credit `measurements` answered-from-cache work performed by an engine
  /// layered above the plan (e.g. the classifier's free-assignment stage,
  /// which resolves whole piles from class_root without any scan). Keeps
  /// measurements_saved a complete activity meter across layers.
  void credit_saved(std::uint64_t measurements) noexcept {
    stats_.measurements_saved += measurements;
  }

  /// Fleet warm start: pre-size the plan's tables for the expected number
  /// of distinct addresses (the stored selection-pool evidence of a
  /// geometry sibling). Purely a capacity reservation — node ids, hashing
  /// verdicts and stats are identical with or without it — so a wrong
  /// hint costs nothing but the reserved memory. Call before first use.
  void warm_start(std::size_t expected_addresses);

  /// Drop every cached relation (classes, witnesses, strict memo) while
  /// keeping the cumulative stats. Merges are permanent by design, so a
  /// burst-window false positive that slipped past the min filter would
  /// otherwise poison every later scan — the pipeline's retry loop calls
  /// this so each attempt re-measures from scratch, exactly like the
  /// pre-scheduler code recovered.
  void reset();

 private:
  /// Union-find node for an address, created on first sight.
  std::size_t node_of(std::uint64_t addr);
  /// Union-find node for an address, or npos when never assigned one.
  /// (Addresses seen only as negative-witness holders have no node.)
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t node_if_known(std::uint64_t addr) const;

  /// Union-find root with batch-level caching: within one epoch (no merges
  /// since) each node resolves its root at most once, so the stage-0 loops
  /// of classify_pairs/probe_pairs/classify_partners pay one find per
  /// unique address per call instead of one per pair. Any merge bumps the
  /// epoch.
  [[nodiscard]] std::size_t cached_root(std::size_t node);

  // Storage accessors: every node/witness/memo touch funnels through these,
  // so LRU order, eviction and stats are decided here, not in the index.
  /// Copy addr's witness list (oldest first) into `out`. Returns true when
  /// the address has a list. The copy is deliberate: arena spans die on
  /// any witness push, and callers loop over one list while recording
  /// negatives on others.
  bool witness_copy(std::uint64_t addr, std::vector<std::uint64_t>& out);
  /// Rotate addr's witness entry equal to `pivot` to the back (LRU hit).
  /// Pre: the entry exists.
  void witness_touch(std::uint64_t addr, std::uint64_t pivot);
  /// Memoized strict verdict for the canonical pair, or -1 when absent.
  [[nodiscard]] int memo_find(std::uint64_t a, std::uint64_t b) const;
  /// Insert or overwrite the canonical pair's strict verdict.
  void memo_store(std::uint64_t a, std::uint64_t b, char val);

  /// Record a strict positive: merge classes.
  void record_same_bank(std::uint64_t a, std::uint64_t b);
  /// Record a scan negative: exact pair plus a witness entry on the
  /// partner ("this pivot rejected it").
  void record_negative(std::uint64_t pivot, std::uint64_t partner);
  /// True when not-SBDR(pivot, x) is proven: the exact pair was measured
  /// negative, or x has two SBDR-positive-linked witnesses in pivot's
  /// class (two different rows of one bank both rejected x).
  [[nodiscard]] bool known_cross(std::uint64_t pivot, std::uint64_t x);

  /// Strict-verify `pairs` with `prior` single-sample latencies folded into
  /// the min filter (NaN prior = no sample to reuse). Verdicts land in
  /// `out` (scratch-backed at every call site — no per-call allocation).
  void verify_strict(std::span<const sim::addr_pair> pairs,
                     std::span<const double> prior, std::vector<char>& out);

  timing::channel& channel_;
  plan_config config_;
  plan_stats stats_;

  union_find uf_;

  /// Node ids, witness lists and the strict memo in flat open-addressing
  /// tables — one hash lookup per address per batch. Witness lists hold
  /// the pivots that measured the address not-SBDR, in LRU order (back =
  /// most recently recorded or consulted): one entry per scan or vote that
  /// rejected the address, so the lists stay short and double as the
  /// exact-pair negative memo. Bounded by plan_config::max_witnesses.
  plan_index idx_;

  /// Batch-level root cache: root_stamp_[node] == root_epoch_ means
  /// root_cache_[node] holds the node's current root. Epoch bumps on every
  /// merge and on reset(), so a stale entry can never be read.
  std::vector<std::size_t> root_cache_;
  std::vector<std::uint64_t> root_stamp_;
  std::uint64_t root_epoch_ = 1;

  /// Scan scratch reused across classify_partners calls: one reservation
  /// per pool size keeps the O(pool * banks) scans allocation-free in
  /// steady state.
  struct scan_scratch {
    std::vector<std::size_t> unknown_idx;
    std::vector<std::size_t> remaining;
    std::vector<std::size_t> sample;
    std::vector<char> sampled;
    std::vector<sim::addr_pair> pairs;
    std::vector<std::size_t> candidate_idx;
    std::vector<sim::addr_pair> candidates;
    std::vector<double> prior;
    std::vector<double> fast;          ///< single-sample latency results
    std::vector<char> strict;          ///< strict-verify verdicts
    std::vector<double> expanded_lat;  ///< verify_strict batch latencies
    std::vector<sim::addr_pair> expanded;
    std::vector<unsigned> fresh_counts;
    std::vector<std::uint64_t> witness_buf;        ///< known_cross list copy
    std::vector<std::uint64_t> pivot_witness_buf;  ///< classify_partners copy
  } scratch_;
};

}  // namespace dramdig::core
