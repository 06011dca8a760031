// The unified tool API: the built-in mapping-recovery tools as one closed
// set a job selects by name.
//
// The paper frames DRAMDig as one of several timing-based
// reverse-engineering tools and benchmarks it against DRAMA (Pessl et al.)
// and Xiao et al. on one cost record. Each of the three tools' run()
// returns that record itself — `tool_result` (core/run_record.h), metered
// by the shared `core::run_meter` — so this header adds only what a job
// needs to name and configure one:
//
//   * `tool_options`   — a validated builder carrying the per-tool configs
//                        a job may need (bad configs throw at set time, not
//                        inside a worker thread);
//   * `tool_names()`   — the closed set of built-in tools ("dramdig",
//                        "drama", "xiao") the mapping_service dispatches.
//
// Grading a result against the simulated ground truth (`verified`) is the
// mapping_service's job, applied the same way to every job it runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/drama.h"
#include "baselines/xiao.h"
#include "core/dramdig.h"
#include "core/run_record.h"

namespace dramdig::api {

using core::tool_phase;
using core::tool_result;

/// Validated carrier for the per-tool configurations. Setters call the same
/// contract check the tool constructors call (dramdig's and drama's
/// `check_config`) and throw contract_violation immediately, so a malformed
/// job spec fails at submission. Xiao's config holds only its seed, set
/// through with_tool_seed.
class tool_options {
 public:
  tool_options() = default;

  tool_options& with_dramdig(core::dramdig_config cfg);
  tool_options& with_drama(baselines::drama_config cfg);
  /// Reseed every per-tool config at once (their `tool_seed` fields).
  tool_options& with_tool_seed(std::uint64_t seed);

  [[nodiscard]] const core::dramdig_config& dramdig() const noexcept {
    return dramdig_;
  }
  [[nodiscard]] const baselines::drama_config& drama() const noexcept {
    return drama_;
  }
  [[nodiscard]] const baselines::xiao_config& xiao() const noexcept {
    return xiao_;
  }

 private:
  core::dramdig_config dramdig_{};
  baselines::drama_config drama_{};
  baselines::xiao_config xiao_{};
};

/// The built-in tool names, sorted: "drama", "dramdig", "xiao".
[[nodiscard]] const std::vector<std::string>& tool_names();

}  // namespace dramdig::api
