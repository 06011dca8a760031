#include "workloads.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "dram/presets.h"
#include "store/mapping_store.h"
#include "sysinfo/system_info.h"
#include "util/gf2.h"
#include "util/rng.h"

namespace perfbench {

namespace api = dramdig::api;
namespace dram = dramdig::dram;
namespace store = dramdig::store;

namespace {

// Workload sizes. Each is large enough that the deterministic per-seed
// figures (virtual seconds, measurement counts) average over many job
// seeds, and small enough that one batch stays near a second of host time.
constexpr unsigned kColdSeedsPerMachine = 12;
/// The DRAMA side pass is only a per-layer profile: about a second.
constexpr unsigned kDramaSeedsPerMachine = 2;
constexpr unsigned kFleetVerifySeedsPerMachine = 24;
constexpr unsigned kFleetWarmJobs = 24;
constexpr unsigned kFleetRequeuedJobs = 3;
constexpr unsigned kFleetFillerEntries = 48;

/// Exact-hit verify jobs run on these (clean and mobile units: a noisy
/// unit could refute its own entry and flip later warm jobs).
constexpr int kFleetPrimed[] = {1, 2, 4, 5, 6, 8};
/// Small primed machines whose cpu_model variants become requeued jobs,
/// keeping full recoveries a minority of the drain's host time.
constexpr int kFleetSmall[] = {1, 4, 8};
/// Warm jobs alternate between these two, whose warm recoveries cost the
/// same virtual time: with a tenth of the mix warm, the p90 virtual tail
/// lands inside that cluster instead of on a seed-dependent edge.
constexpr int kFleetWarm[] = {1, 8};
/// Geometries nothing else in the mix uses: each runs once, cold.
constexpr int kFleetCold[] = {3, 7};
/// The paper machines on which DRAMA completes for every seed with a
/// near-constant trial count. Left out: the noisy No.3/No.7, where each job
/// burns the 2-hour virtual budget in 4-6 s of host time; No.2/No.6/No.9,
/// where trial agreement makes one job cost 900-7400 virtual seconds and
/// sometimes time out; and No.5, whose extra trial pairs (546 +- 135 s)
/// make its per-job cost swing.
constexpr int kDramaMachines[] = {1, 4, 8};

/// splitmix64 finalizer: job seeds are a pure function of (workload seed,
/// stream, index), independent of how many jobs other streams draw.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t job_seed(std::uint64_t workload_seed, std::uint64_t stream,
                       std::uint64_t k) {
  return mix(mix(mix(workload_seed) ^ stream) ^ k);
}

api::job_spec job(const dram::machine_spec& m, const char* tool,
                  std::uint64_t seed) {
  api::tool_options options;
  options.with_tool_seed(mix(seed));
  return {m, tool, options, seed};
}

dram::machine_spec variant(int number, const std::string& suffix) {
  dram::machine_spec m = dram::machine_by_number(number);
  m.cpu_model += suffix;
  return m;
}

workload cold_recovery(std::uint64_t seed) {
  workload w{"cold_recovery", 2, {}, {}, {}, 0};
  for (unsigned k = 0; k < kColdSeedsPerMachine; ++k) {
    for (const dram::machine_spec& m : dram::paper_machines()) {
      w.jobs.push_back(
          job(m, "dramdig", job_seed(seed, static_cast<unsigned>(m.number), k)));
    }
  }
  w.expected_hits.assign(w.jobs.size(), "");
  return w;
}

/// A store entry for a machine no job resembles (ECC on, sizes no paper
/// machine has): it only makes lookups and save() walk a fleet-sized
/// document.
store::store_entry filler_entry(const store::store_entry& like,
                                unsigned index) {
  store::store_entry e = like;
  e.fingerprint.cpu_model = "fleet-filler-" + std::to_string(index);
  e.fingerprint.ecc = true;
  e.fingerprint.total_bytes = (std::uint64_t{index} + 3) << 30;
  e.history = {{"recovered", index, 40000 + index},
               {"verified", index + 1, 900},
               {"verified", index + 2, 900}};
  e.evidence_digest = e.compute_evidence_digest();
  return e;
}

workload fleet_daemon(std::uint64_t seed, const std::string& workdir) {
  workload w{"fleet_daemon", 1, {}, {}, workdir + "/fleet_primed.json", 0};

  // Prime: one cold recovery per primed machine, through the service itself
  // so the entries are exactly what a real fleet accumulates.
  store::mapping_store primed(w.primed_store);
  {
    std::vector<api::job_spec> priming;
    for (const int number : kFleetPrimed) {
      priming.push_back(job(dram::machine_by_number(number), "dramdig",
                            job_seed(seed, 200 + number, 0)));
    }
    const api::mapping_service service({.threads = 2, .store = &primed});
    for (const api::job_outcome& o : service.run(priming)) {
      if (o.state != api::job_state::completed || !o.result.verified) {
        throw std::runtime_error("fleet priming recovery failed: " +
                                 o.result.failure_reason);
      }
    }
  }
  // Poisoned entries: cpu_model variants of small machines carrying a
  // wrong bank function. Put after the genuine entries, so a geometry
  // lookup always finds the genuine sibling first.
  for (unsigned k = 0; k < kFleetRequeuedJobs; ++k) {
    const dram::machine_spec m =
        variant(kFleetSmall[k % std::size(kFleetSmall)],
                "-p" + std::to_string(k));
    store::store_entry e =
        *primed.find_geometry(dramdig::sysinfo::fingerprint(m));
    e.fingerprint = dramdig::sysinfo::fingerprint(m);
    e.bank_functions.back() = (1ull << 20) ^ (1ull << 24);
    e.function_span = dramdig::gf2::row_echelon(e.bank_functions);
    e.evidence_digest = e.compute_evidence_digest();
    primed.put(std::move(e));
  }
  const store::store_entry like = primed.entries().front();
  for (unsigned i = 0; i < kFleetFillerEntries; ++i) {
    primed.put(filler_entry(like, i));
  }
  primed.save();
  w.primed_entries = primed.size();

  // The mix. Every warm, requeued and cold fingerprint appears once and no
  // cold job shares a geometry with another job, so no job's store verdict
  // depends on another job of the same drain finishing first.
  std::vector<std::pair<api::job_spec, std::string>> mix_jobs;
  for (unsigned k = 0; k < kFleetVerifySeedsPerMachine; ++k) {
    for (const int number : kFleetPrimed) {
      mix_jobs.emplace_back(job(dram::machine_by_number(number), "dramdig",
                                job_seed(seed, 300 + number, k)),
                            "verify");
    }
  }
  for (unsigned k = 0; k < kFleetWarmJobs; ++k) {
    const int number = kFleetWarm[k % std::size(kFleetWarm)];
    mix_jobs.emplace_back(job(variant(number, "-w" + std::to_string(k)),
                              "dramdig", job_seed(seed, 400 + number, k)),
                          "warm");
  }
  for (unsigned k = 0; k < kFleetRequeuedJobs; ++k) {
    const int number = kFleetSmall[k % std::size(kFleetSmall)];
    mix_jobs.emplace_back(job(variant(number, "-p" + std::to_string(k)),
                              "dramdig", job_seed(seed, 500 + number, k)),
                          "requeued");
  }
  for (const int number : kFleetCold) {
    mix_jobs.emplace_back(job(dram::machine_by_number(number), "dramdig",
                              job_seed(seed, 600 + number, 0)),
                          "cold");
  }
  dramdig::rng order(job_seed(seed, 700, 0));
  std::shuffle(mix_jobs.begin(), mix_jobs.end(), order.engine());
  for (auto& [spec, hit] : mix_jobs) {
    w.jobs.push_back(std::move(spec));
    w.expected_hits.push_back(std::move(hit));
  }
  return w;
}

}  // namespace

workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& workdir) {
  if (name == "cold_recovery") return cold_recovery(seed);
  if (name == "fleet_daemon") return fleet_daemon(seed, workdir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<api::job_spec> drama_jobs(std::uint64_t seed) {
  std::vector<api::job_spec> jobs;
  for (unsigned k = 0; k < kDramaSeedsPerMachine; ++k) {
    for (const int number : kDramaMachines) {
      jobs.push_back(job(dram::machine_by_number(number), "drama",
                         job_seed(seed, 100 + number, k)));
    }
  }
  return jobs;
}

}  // namespace perfbench
