// Phase progress events: the one event vocabulary every tool streams.
//
// A phase event carries the clock/measurement delta of one occurrence of a
// named pipeline stage. DRAMDig emits its six pipeline phases (plus the
// designed probe rounds), DRAMA emits one event per trial, and the
// mapping_service forwards all of them to its observers. The types live in
// this leaf header so a baseline can accept a phase callback without
// depending on the DRAMDig pipeline headers.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

namespace dramdig::core {

struct phase_stats {
  double seconds = 0.0;
  std::uint64_t measurements = 0;
  /// Pair samples the phase drew — filled for the calibration phase, where
  /// the adaptive calibrator makes the count run-dependent, and for probe
  /// rounds, where it carries the round's vote count (those rounds' clock
  /// and measurement cost is metered by the owning coarse/fine phase
  /// event, so observers summing deltas across events stay exact).
  std::uint64_t pairs_used = 0;
};

/// Progress hook: invoked after a pipeline phase completes with that
/// occurrence's clock/measurement delta. A phase can fire more than once in
/// one run (selection re-runs on widened pools, partition once per
/// bank-count attempt, one event per designed probe round or DRAMA trial),
/// so consumers aggregate by name if they want totals. Every tool's run()
/// takes one as its per-run input, kept apart from its config (a config
/// holds knobs only); the mapping_service passes its observer hook here.
using phase_callback =
    std::function<void(std::string_view phase, const phase_stats& delta)>;

}  // namespace dramdig::core
