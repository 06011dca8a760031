// The unified tool API: every mapping-recovery tool in the project behind
// one polymorphic interface.
//
// The paper frames DRAMDig as one of several timing-based
// reverse-engineering tools and benchmarks it against DRAMA (Pessl et al.)
// and Xiao et al. This header puts the three behind one interface:
//
//   * `mapping_tool`   — describe() + run(environment&, on_phase) returning
//                        a `tool_result`, the one result schema every
//                        driver (bench, example, CI, service) consumes;
//   * `tool_options`   — a validated builder carrying the per-tool configs
//                        a job may need (bad configs throw at set time, not
//                        inside a worker thread);
//   * `tool_names()` / `make_tool()` — the closed set of built-in tools
//                        ("dramdig", "drama", "xiao"), so drivers and the
//                        mapping_service select tools by name.
//
// Adapters translate each tool's bespoke report into `tool_result` and are
// the only place that knows the per-tool success/verification semantics
// (e.g. DRAMA "completed" = two agreeing trials, verified = function span
// matches; a DRAMA hypothesis never matches the truth's row bits, so full
// mapping equivalence would be the wrong check for it).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/drama.h"
#include "baselines/xiao.h"
#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/mapping.h"

namespace dramdig {
class json_writer;
}

namespace dramdig::api {

/// One pipeline phase's aggregate cost within a run.
struct tool_phase {
  std::string name;
  double seconds = 0.0;
  std::uint64_t measurements = 0;
  std::uint64_t pairs_used = 0;  ///< nonzero only for adaptive calibration
};

/// The unified run record. Every field is a pure function of (machine spec,
/// environment seed, tool options) — wall-clock time deliberately lives
/// outside, on the service's `job_outcome` — so two results can be compared
/// bit-for-bit to prove determinism.
struct tool_result {
  std::string tool;       ///< name of the tool that produced it
  bool success = false;   ///< the tool's own completion claim
  /// Output checked against the simulated ground truth, with the per-tool
  /// notion of "correct" (DRAMDig/Xiao: full mapping equivalence; DRAMA:
  /// bank-function span match — its fixed row heuristic is not the claim).
  bool verified = false;
  std::optional<dram::address_mapping> mapping;
  std::string outcome;         ///< short status label ("success", "timeout", ...)
  std::string detail;          ///< tool-specific note ("pool 4096, 8 piles")
  std::string failure_reason;  ///< empty on success
  std::vector<tool_phase> phases;
  /// Designed-experiment probe-round activity (rounds batched, votes cast
  /// and early-terminated, votes answered from the reuse cache). All zero
  /// for tools that do not run the bit-probe engine.
  core::probe_stats probe_rounds{};
  double virtual_seconds = 0.0;
  std::uint64_t measurement_count = 0;
  std::uint64_t measurements_saved = 0;
  std::uint64_t access_count = 0;
  /// Selection-pool size of the run (DRAMDig only, 0 elsewhere) — the
  /// classifier-evidence field the fleet mapping store persists so warm
  /// starts can pre-size the measurement plan.
  std::uint64_t pool_size = 0;
  /// Bank count the run resolved (DRAMDig only, 0 elsewhere). Store
  /// evidence: a geometry sibling's wrong-bank-count sweep starts here.
  unsigned assumed_bank_count = 0;
  /// Calibrated row-conflict threshold in ns (DRAMDig only, 0 elsewhere).
  /// Store evidence: authorizes an early calibration stop on siblings.
  double threshold_ns = 0.0;

  /// Append this result as one JSON object (the machine-readable format
  /// every driver emits; see ROADMAP "Unified tool API" for the schema).
  ///
  /// Related document: the fleet mapping store persists a *different*
  /// schema derived from successful results (numeric masks and bit lists,
  /// read back by util/json.h json_value), described once in
  /// src/store/mapping_store.h.
  void to_json(json_writer& w) const;
  [[nodiscard]] std::string to_json_string() const;
};

struct tool_description {
  std::string name;     ///< tool name (one of tool_names())
  std::string title;    ///< display name ("DRAMA (Pessl et al.)")
  std::string summary;  ///< one-line method description
};

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

/// A mapping-recovery tool. run() owns nothing: the caller provides the
/// device-under-test and the tool interacts with it exclusively through the
/// timing channel and the simulated OS, like every concrete tool does.
class mapping_tool {
 public:
  virtual ~mapping_tool() = default;

  [[nodiscard]] virtual tool_description describe() const = 0;
  /// `on_phase` is passed straight to the tool's own run(): phase events
  /// stream to it while the run executes. The mapping_service passes its
  /// observer hook here.
  [[nodiscard]] virtual tool_result run(
      core::environment& env, const core::phase_callback& on_phase = {}) = 0;
};

/// The built-in tool names, sorted: "drama", "dramdig", "xiao".
[[nodiscard]] const std::vector<std::string>& tool_names();

/// A fresh tool by name. Throws contract_violation for an unknown name.
[[nodiscard]] std::unique_ptr<mapping_tool> make_tool(
    const std::string& name, const tool_options& options = {});

}  // namespace dramdig::api
