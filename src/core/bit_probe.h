// The designed-experiment bit-probe engine behind the coarse and fine
// bit-classification phases (paper Sections III-C / III-E).
//
// Both phases ask one question many times over: "does delta d flip a row
// and nothing that changes the bank?" — answered by a majority vote of
// SBDR measurements on pairs (p, p ^ d). Serving each bit its own
// fixed-count vote loop over independently random pairs would cost ~30
// sequential controller batches for the row pass alone, every vote would
// pay the full strict price, and no two picks would ever coincide, so the
// measurement-reuse scheduler's memo would never fire.
//
// The engine turns a whole phase into designed rounds:
//   * All candidate deltas' experiments are planned up front; per round,
//     every still-undecided experiment contributes one pair and the round
//     is serviced as ONE cross-bit controller batch.
//   * Pairs are designed around a shared base address: one base p serves
//     (p, p ^ d) for every delta whose partner page it backs, so the
//     round's evidence concentrates on few addresses — exact-pair memo
//     verdicts and witness/cross proofs accreted in the plan can actually
//     answer later probes (and partition scans) instead of being defeated
//     by independent random picks.
//   * Votes route through measurement_plan::probe_pairs: a single fast
//     sample already proves the strict verdict negative (noise is
//     one-sided), so only slow readings graduate to strict verification
//     with the vote sample folded into the min filter.
//   * Votes terminate early: an experiment stops the moment its remaining
//     rounds cannot flip the majority, instead of always burning
//     probe_config::votes strict measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/measurement_plan.h"
#include "os/address_space.h"
#include "util/rng.h"

namespace dramdig::core {

struct probe_config {
  /// Maximum pairs voted per experiment; the majority decides. A stream
  /// stops early once the remainder cannot flip it.
  unsigned votes = 7;
  /// Random bases tried per pair when the shared base cannot serve a
  /// delta (its partner page is not backed by the buffer).
  unsigned pair_attempts = 256;
  /// Shared-base candidates scored per designed round; the base backing
  /// the most active deltas wins.
  unsigned base_attempts = 6;
  /// Agreeing votes that settle an experiment carrying a prior (fleet
  /// warm start). 1 is sound, not reckless: a delta experiment's ground
  /// truth is shared by every pair (p, p ^ d), noise is one-sided (events
  /// only inflate latency), and probe_pairs grades every slow reading
  /// through the strict min filter — so a single fast sample is already
  /// proof of a negative and a single strict positive is proof of a
  /// positive. Any disagreeing vote refutes the prior for that experiment
  /// and escalates it to the standard `votes` majority.
  unsigned prior_confirm = 1;
};

/// Cumulative engine activity (across every run() of one engine).
struct probe_stats {
  std::uint64_t experiments = 0;       ///< deltas submitted
  std::uint64_t rounds = 0;            ///< designed controller rounds
  std::uint64_t votes_cast = 0;        ///< pair verdicts consumed by majorities
  std::uint64_t votes_saved = 0;       ///< votes skipped by early termination
  std::uint64_t shared_base_votes = 0; ///< pairs served off a round's shared base
  std::uint64_t reused_votes = 0;      ///< votes answered from the plan's cache
  std::uint64_t priors_confirmed = 0;  ///< experiments settled by an agreeing prior
  std::uint64_t priors_refuted = 0;    ///< priors dropped on a disagreeing vote
};

/// One designed round, as streamed to the round hook.
struct probe_round_event {
  std::string_view stage;        ///< caller label ("coarse.row", "fine", ...)
  unsigned round = 0;            ///< round index within this run
  std::size_t active = 0;        ///< experiments still undecided entering it
  std::uint64_t votes = 0;       ///< votes cast this round
  std::uint64_t measurements = 0;///< controller measurements this round
};

class bit_probe_engine {
 public:
  using round_callback = std::function<void(const probe_round_event&)>;

  /// The engine measures exclusively through the plan (so verdicts accrete
  /// in the run-wide cache) and picks pairs from the buffer's pagemap.
  bit_probe_engine(measurement_plan& plan, const os::mapping_region& buffer);

  /// Majority-vote SBDR verdicts for a batch of delta experiments (deltas
  /// must be distinct — distinct deltas guarantee distinct pairs within a
  /// round). nullopt = untestable: no measurable pair was ever found.
  [[nodiscard]] std::vector<std::optional<bool>> run(
      std::span<const std::uint64_t> deltas, const probe_config& config,
      rng& r, std::string_view stage = "probe");

  /// Prior-seeded variant (fleet warm start): priors[i] predicts
  /// experiment i's verdict from stored sibling evidence (nullopt = no
  /// claim). An experiment whose first prior_confirm votes agree with its
  /// prior settles immediately (the votes are strict-grade, so the early
  /// verdict is as sound as the full majority); a disagreeing vote drops
  /// the prior for that experiment and the standard majority decides.
  /// priors must be empty or match deltas.size().
  [[nodiscard]] std::vector<std::optional<bool>> run(
      std::span<const std::uint64_t> deltas,
      std::span<const std::optional<bool>> priors, const probe_config& config,
      rng& r, std::string_view stage = "probe");

  /// Single-experiment convenience (fine's per-candidate confirmation).
  [[nodiscard]] std::optional<bool> run_one(std::uint64_t delta,
                                            const probe_config& config, rng& r,
                                            std::string_view stage = "probe");

  /// Per-round progress hook; dramdig_tool forwards these into its
  /// phase-event stream.
  void set_round_hook(round_callback hook) { on_round_ = std::move(hook); }

  [[nodiscard]] const probe_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] measurement_plan& plan() noexcept { return plan_; }
  [[nodiscard]] const os::mapping_region& buffer() const noexcept {
    return buffer_;
  }

 private:
  measurement_plan& plan_;
  const os::mapping_region& buffer_;
  probe_stats stats_;
  round_callback on_round_;
};

}  // namespace dramdig::core
