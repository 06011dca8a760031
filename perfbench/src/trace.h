// The traced run: spans recorded from outside the program, around the
// calls into each layer.
//
// Jobs are fed one at a time through mapping_service::run with a
// timestamping progress_observer. The interval between consecutive events
// of one job (on_job_start, each on_job_phase, on_job_done) becomes a span
// named after the event that closes it, so a span's layer is the module
// that emitted the closing event. `probe:*` round events fold into their
// owning coarse/fine span (they are recorded as instants); in the DRAMA
// profile, "trial" events give one span per trial. The first span of a job
// also covers
// environment construction and buffer mapping, and says so in the trace.
// Spans stay in memory and are written once, as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/mapping_service.h"
#include "workloads.h"

namespace perfbench {

using steady = std::chrono::steady_clock;

struct span {
  std::string name;  ///< the event that closed the interval
  double t0 = 0.0;   ///< seconds since the trace origin
  double t1 = 0.0;
  std::uint64_t measurements = 0;
  std::uint64_t pairs_used = 0;
  bool first = false;  ///< also holds environment setup and buffer mapping
};

struct probe_mark {
  std::string stage;
  double t = 0.0;
  std::uint64_t votes = 0;
};

/// Everything recorded for one job, timestamps in seconds since the origin.
struct job_trace {
  std::size_t job = 0;  ///< index in the workload's job list
  double entry = 0.0;   ///< mapping_service::run() called
  double start = 0.0;   ///< on_job_start
  double done = 0.0;    ///< on_job_done
  double exit = 0.0;    ///< run() returned (store put + save in between)
  std::vector<span> spans;
  std::vector<probe_mark> probes;
  dramdig::api::job_outcome outcome;
};

/// Observer for one-job-at-a-time runs: begin() before each run() call,
/// finish() after it returns.
class span_recorder final : public dramdig::api::progress_observer {
 public:
  explicit span_recorder(steady::time_point origin) : origin_(origin) {}

  void begin(std::size_t job);
  [[nodiscard]] job_trace finish();

  void on_job_start(std::size_t, const dramdig::api::job_spec&) override;
  void on_job_phase(std::size_t, std::string_view phase,
                    const dramdig::core::phase_stats& delta) override;
  void on_job_done(std::size_t, const dramdig::api::job_outcome&) override;

 private:
  [[nodiscard]] double now() const;

  steady::time_point origin_;
  job_trace current_;
  double last_ = 0.0;  ///< when the open interval began
};

/// Host cost of the simulator's batch interface, measured on a fresh
/// environment per machine at fixed batch sizes.
struct sim_profile {
  double ns_per_measurement = 0.0;  ///< pooled over both batch sizes
  double ns_per_measurement_b256 = 0.0;
  double ns_per_measurement_b4096 = 0.0;
  double accesses_per_measurement = 0.0;
};

[[nodiscard]] sim_profile profile_sim(const workload& w, std::uint64_t seed);

/// Host cost of DRAMA's trials, from a traced one-worker pass over
/// drama_jobs(seed).
struct baselines_profile {
  double trial_wall_ms = 0.0;
  double trials_per_job = 0.0;
  double ns_per_measurement = 0.0;
};

[[nodiscard]] baselines_profile profile_baselines(std::uint64_t seed);

/// Inputs to the per-layer metrics besides the traced jobs themselves.
struct layer_inputs {
  double env_construct_ms = 0.0;
  sim_profile sim;
  baselines_profile baselines;
  std::uint64_t document_bytes_start = 0;
  std::uint64_t document_bytes_end = 0;
  double trace_wall_ratio = 0.0;  ///< traced / untraced pass wall
};

/// Every per-layer metric, by name. Layers a workload never reaches
/// report 0.
[[nodiscard]] std::map<std::string, double> layer_metrics(
    const workload& w, const std::vector<job_trace>& traces,
    const layer_inputs& in);

/// Units of the names layer_metrics returns.
[[nodiscard]] std::string layer_unit(const std::string& metric);

/// Chrome trace-event JSON of one traced pass.
[[nodiscard]] std::string chrome_trace(const workload& w,
                                       const std::vector<job_trace>& traces);

}  // namespace perfbench
