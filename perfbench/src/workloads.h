// The benchmark's two workloads, generated from one workload seed.
//
//   cold_recovery   DRAMDig, no store, every paper machine x N job seeds:
//                   the paper's own workload (Fig. 2 / Table II).
//   fleet_daemon    mapping_service::serve draining a job feed against a
//                   primed, file-backed mapping store: mostly exact-hit
//                   verification, plus warm, requeued and cold jobs.
//
// Plus the DRAMA jobs of the traced run's baselines profile. Every job seed
// derives from the workload seed, so one seed names one input set. The
// program under test only ever sees the generated job specs (and, for the
// fleet, the primed store document).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/mapping_service.h"

namespace perfbench {

struct workload {
  std::string name;
  /// mapping_service worker threads for the timed batches.
  unsigned threads = 2;
  std::vector<dramdig::api::job_spec> jobs;
  /// Store verdict each job is built to receive (fleet only; empty
  /// strings elsewhere). A different verdict is a correctness failure:
  /// the mix relies on it to keep results independent of job order.
  std::vector<std::string> expected_hits;
  /// Fleet only: the primed store document every run starts from.
  std::string primed_store;
  /// Fleet only: entries in the primed document.
  std::size_t primed_entries = 0;

  [[nodiscard]] bool uses_store() const { return !primed_store.empty(); }
};

/// Build the named workload. `workdir` receives the fleet's primed store.
/// Throws std::invalid_argument for an unknown name and std::runtime_error
/// when the fleet store does not prime as designed.
[[nodiscard]] workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::string& workdir);

/// DRAMA on the clean paper machines No.1/No.4/No.8, two job seeds each:
/// Fig. 2's comparison tool, profiled per layer by the traced run.
[[nodiscard]] std::vector<dramdig::api::job_spec> drama_jobs(
    std::uint64_t seed);

}  // namespace perfbench
