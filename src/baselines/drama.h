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
// DRAMDig — a timing::channel with DRAMA's own crude threshold injected.
// Each clustering sweep is one measure_batch of single-sample latencies
// compared against that threshold; how the sweeps are cut into batches
// does not change a single reading.
//
// The published parameters (buffer size, rounds per measurement, threshold
// factor, violation tolerances, function width, candidate bits, minimum
// set size, CPU cost per mask) are named constants in drama.cpp. The
// config holds only what tests and benches vary: the pool and calibration
// sizes, the trial and time budget, and the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/environment.h"
#include "core/run_record.h"
#include "dram/mapping.h"

namespace dramdig::baselines {

struct drama_config {
  std::size_t pool_size = 8000;
  unsigned calibration_pairs = 800;
  unsigned max_trials = 150;        ///< the timeout binds first in practice
  double timeout_seconds = 7200.0;  ///< the paper killed it at ~2 hours
  std::uint64_t tool_seed = 1;
};

/// The one contract check on a drama_config, shared by the drama_tool
/// constructor and api::tool_options::with_drama. Throws
/// contract_violation.
void check_config(const drama_config& config);

struct drama_trial {
  std::vector<std::uint64_t> functions;  ///< minimal-weight basis (display)
  std::vector<std::uint64_t> canonical;  ///< row-echelon form (comparison)
  std::size_t set_count = 0;
  bool valid = false;  ///< produced at least two independent functions
};

class drama_tool {
 public:
  explicit drama_tool(core::environment& env, drama_config config = {});

  /// Run trials until two consecutive valid ones agree or the budget
  /// expires. `on_phase` gets one "trial" event per completed trial with
  /// that trial's clock/measurement delta (the trials are where every
  /// measurement happens, so the deltas sum to the run's totals) — a driver
  /// can watch a hopeless unit live instead of reading one terminal event
  /// after the 2-hour budget expires. The record's outcome is "completed"
  /// (two agreeing trials), "timeout" or "no agreement"; its mapping is the
  /// best effort — the agreed trial, else the latest valid one, else the
  /// last — and its phases hold one terminal "trials" entry.
  [[nodiscard]] core::tool_result run(
      const core::phase_callback& on_phase = {});

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
