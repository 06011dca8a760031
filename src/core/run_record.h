// The run record: the one event vocabulary, cost meter and result type
// every mapping-recovery tool shares.
//
//   * `phase_stats` / `phase_callback` — a phase event carries the
//     clock/measurement delta of one occurrence of a named stage. DRAMDig
//     emits its six pipeline phases (plus the designed probe rounds),
//     DRAMA one event per trial, Xiao et al. one per stage; the
//     mapping_service forwards all of them to its observers.
//   * `run_meter` — meters one run on its memory controller: scoped phase
//     occurrences stream their deltas and aggregate by name, and the run's
//     totals (virtual seconds, measurements, accesses) are read once at
//     the end. DRAMDig, DRAMA, Xiao et al. and the store verifier all
//     meter through it.
//   * `tool_result` — what every tool's run() returns and every driver
//     (bench, example, CI, service) consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bit_probe.h"
#include "dram/mapping.h"
#include "sim/memory_controller.h"

namespace dramdig {
class json_writer;
}

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

/// One named phase's aggregate cost within a run.
struct tool_phase {
  std::string name;
  double seconds = 0.0;
  std::uint64_t measurements = 0;
  std::uint64_t pairs_used = 0;  ///< nonzero only for adaptive calibration
};

/// The run record. Every field is a pure function of (machine spec,
/// environment seed, tool options) — wall-clock time deliberately lives
/// outside, on the service's `job_outcome` — so two results can be compared
/// bit-for-bit to prove determinism.
struct tool_result {
  std::string tool;       ///< name of the tool that produced it
  bool success = false;   ///< the tool's own completion claim
  /// Output checked against the simulated ground truth. Tools never read
  /// the truth: the mapping_service grades every job it runs (DRAMDig and
  /// Xiao: full mapping equivalence; DRAMA: bank-function span match — its
  /// fixed row heuristic is not the claim). False on a direct run().
  bool verified = false;
  std::optional<dram::address_mapping> mapping;
  std::string outcome;         ///< short status label ("success", "timeout", ...)
  std::string detail;          ///< tool-specific note ("pool 4096, 8 piles")
  std::string failure_reason;  ///< empty on success
  std::vector<tool_phase> phases;
  /// Designed-experiment probe-round activity (rounds batched, votes cast
  /// and early-terminated, votes answered from the reuse cache). All zero
  /// for tools that do not run the bit-probe engine.
  probe_stats probe_rounds{};
  double virtual_seconds = 0.0;
  std::uint64_t measurement_count = 0;
  /// Cache activity of DRAMDig's reuse scheduler, valued in measurements:
  /// every verdict answered from the cache counts what re-measuring it in
  /// place would have cost. Repeat scans re-count their reuse, so this
  /// meters this run's own path — it is NOT the delta against a cache-off
  /// run. 0 for the baselines, which remeasure everything.
  std::uint64_t measurements_saved = 0;
  std::uint64_t access_count = 0;
  /// Selection-pool size the run partitioned (DRAMDig only, 0 elsewhere):
  /// reported in `detail` and the JSON record, and persisted by the fleet
  /// mapping store as evidence (it feeds the entry's evidence digest). A
  /// verify job reports the stored value. Nothing is sized from it.
  std::uint64_t pool_size = 0;
  /// Bank count whose partition resolved the functions (DRAMDig only, 0
  /// elsewhere): system information's count, or the candidate a sweep
  /// settled on when there is none (the knowledge ablation prints it). A
  /// verify job reports the stored mapping's count. Reported only; the
  /// store does not persist it.
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

/// A run's cost from meter construction to the read.
struct run_totals {
  double seconds = 0.0;
  std::uint64_t measurements = 0;
  std::uint64_t accesses = 0;
};

/// The cost meter of one tool run. Reads the controller's clock and
/// counters, so a run is metered the same whether its environment is fresh
/// or reused.
class run_meter {
 public:
  /// Starts the run's totals. `notify` receives every phase occurrence's
  /// delta as the occurrence closes (unset = no stream).
  run_meter(sim::memory_controller& mc, phase_callback notify);

  /// One occurrence of a named phase: open for the scope's lifetime. On
  /// destruction its delta is added to the phase's aggregate and streamed.
  class scope {
   public:
    scope(run_meter& meter, std::string_view name);
    ~scope();
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    /// Pair samples the occurrence drew (the calibration phase's count).
    void add_pairs(std::uint64_t pairs) noexcept { pairs_used_ += pairs; }

   private:
    run_meter& meter_;
    std::string_view name_;
    std::uint64_t t0_;
    std::uint64_t m0_;
    std::uint64_t pairs_used_ = 0;
  };

  /// Aggregate of every closed occurrence of `name` (zeros if none).
  [[nodiscard]] tool_phase phase(std::string_view name) const;
  /// The run's cost since construction, inside and between phases.
  [[nodiscard]] run_totals totals() const;
  /// Write totals() into the record's virtual_seconds, measurement_count
  /// and access_count.
  void finish(tool_result& out) const;

 private:
  sim::memory_controller& mc_;
  phase_callback notify_;
  std::uint64_t t0_;
  std::uint64_t m0_;
  std::uint64_t a0_;
  std::vector<tool_phase> phases_;  ///< aggregates, first-occurrence order
};

}  // namespace dramdig::core
