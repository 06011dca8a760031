// DRAMA baseline (Pessl et al., USENIX Security'16), reimplemented from the
// paper so the comparisons in Table I, Fig. 2 and Table III run live.
//
// DRAMA is generic but blind: it samples a random address pool, clusters it
// into same-bank sets with single-sample timing sweeps, then brute-forces
// XOR functions over *all* physical address bits (up to a bounded function
// width), tolerating a fraction of violations per set. It has no concept
// of the machine's bank count or of row/column structure, so:
//   * pool sampling and clustering dominate its runtime (hours on
//     many-bank machines vs DRAMDig's designed pools),
//   * a background-load burst during the single-sample sweep pollutes the
//     clusters of that trial, and the tool only notices when two
//     consecutive trials disagree — the published non-determinism,
//   * on persistently noisy units no trial ever validates and the tool
//     runs until its budget expires (the paper's No.3 / No.7 outcome).
//
// The implementation runs through the same measurement substrate as
// DRAMDig — a timing::channel with DRAMA's own crude threshold injected —
// so each clustering sweep is serviced as one controller batch while
// staying bit-identical to the original scalar measure_pair loops.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/environment.h"
#include "core/phase.h"
#include "dram/mapping.h"

namespace dramdig::baselines {

struct drama_config {
  std::uint64_t buffer_bytes = std::uint64_t{1} << 30;  ///< 1 GiB mapping
  std::size_t pool_size = 8000;
  unsigned rounds_per_measurement = 4000;  ///< long hammer loops per pair
  unsigned calibration_pairs = 800;
  double threshold_factor = 1.35;   ///< threshold = modal latency x factor
  double violation_tolerance = 0.05;  ///< aggregate minority fraction
  double per_set_violation_cap = 0.25;
  unsigned max_function_bits = 7;
  unsigned max_candidate_bit = 33;
  std::size_t min_set_size = 30;
  unsigned max_trials = 150;         ///< the timeout binds first in practice
  unsigned agreements_required = 2;  ///< consecutive equal outputs
  double timeout_seconds = 7200.0;   ///< the paper killed it at ~2 hours
  double cpu_ns_per_mask = 1500.0;   ///< virtual cost of the brute force
  /// Ablation arm ("what if DRAMA had the algebra"): recover each trial's
  /// candidate masks from the GF(2) null space of the clusters'
  /// pivot-difference matrix instead of enumerating every
  /// <=max_function_bits mask over all physical bits, then re-apply the
  /// published acceptance filter. Identical output on clean trials (the
  /// null space is exactly the masks constant on every set); on polluted
  /// trials the strict algebra can drop a tolerated-noise function the
  /// sweep would keep. Off by default: the enumeration is the published
  /// tool's behaviour; bench/ablation_knowledge reports this arm.
  bool use_nullspace = false;
  std::uint64_t tool_seed = 1;
  /// Per-trial progress events: one "trial" event per completed trial with
  /// that trial's clock/measurement delta (the trials are where every
  /// measurement happens, so the deltas sum to the run's totals). The
  /// drama adapter chains the mapping_service observer hook in here, so a
  /// driver can watch a hopeless unit live instead of reading one terminal
  /// event after the 2-hour budget expires.
  core::phase_callback on_phase{};
  /// Cooperative abort: polled before each trial; when it returns true the
  /// run stops at that trial boundary with report.aborted set. The
  /// mapping_service binds its cancellation token here, which is what lets
  /// a driver kill a no-agreement unit early.
  std::function<bool()> should_abort{};
};

struct drama_trial {
  std::vector<std::uint64_t> functions;  ///< minimal-weight basis (display)
  std::vector<std::uint64_t> canonical;  ///< row-echelon form (comparison)
  std::size_t set_count = 0;
  bool valid = false;  ///< produced at least two independent functions
};

struct drama_report {
  bool completed = false;  ///< two consecutive agreeing valid trials
  bool timed_out = false;
  bool aborted = false;    ///< stopped by drama_config::should_abort
  std::optional<dram::address_mapping> mapping;  ///< best-effort hypothesis
  std::vector<std::uint64_t> functions;
  unsigned trials_run = 0;
  double total_seconds = 0.0;
  std::uint64_t total_measurements = 0;
  /// Verdicts answered from a reuse cache. DRAMA has none — the original
  /// tool remeasures everything — so this stays 0 and exists to make the
  /// Fig. 2 cost record structurally comparable across tools.
  std::uint64_t measurements_saved = 0;
  std::vector<drama_trial> trials;  ///< per-trial outputs (determinism study)
};

class drama_tool {
 public:
  explicit drama_tool(core::environment& env, drama_config config = {});

  [[nodiscard]] drama_report run();

 private:
  core::environment& env_;
  drama_config config_;

  [[nodiscard]] drama_trial run_trial(const os::mapping_region& buffer,
                                      rng& r);
};

/// The row/column guess DRAMA-based attacks use: rows are the top bits
/// left over after 13 column bits and the discovered functions. Produces a
/// (possibly wrong, possibly non-bijective) hypothesis for hammering.
[[nodiscard]] dram::address_mapping drama_hypothesis(
    const std::vector<std::uint64_t>& functions, unsigned address_bits);

}  // namespace dramdig::baselines
