// perfbench_driver: runs one benchmark workload against the public
// api::mapping_service and writes its metrics as one JSON document.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR --result PATH [--trace-out PATH]
//                    [--setup-only]
//
// Set-up (timed as setup_s): build the job list from the seed, then either
// prime the fleet store or run a warm-up of one job per machine at two
// workers; both absorb lazy set-up (worker-pool spawn, first environments).
// Then, untimed, one reference batch of the whole job list runs at two
// workers; its per-job digests are what every later run must match, and
// peak memory is read right after it. --setup-only stops there.
//
// --trace 0: repeat the batch at the workload's worker count until S
//   seconds have passed; report the end-to-end metrics (host metrics are
//   medians over batches).
// --trace 1: alternate untraced and traced passes with one worker, jobs fed
//   one at a time, until S seconds have passed; report the per-layer
//   metrics, the tracing overhead, and write the first traced pass as a
//   Chrome trace.
//
// Every run checks correctness: no job may fail, fleet jobs must get the
// store verdict the mix was built for, a DRAMDig success must be the true
// mapping, and each job's digest (mapping, measurement count, virtual ns,
// store verdict) must equal the reference batch's — across batches and
// between one and two workers. A violation exits non-zero.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/mapping_service.h"
#include "core/environment.h"
#include "stats.h"
#include "store/mapping_store.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace {

namespace api = dramdig::api;
namespace fs = std::filesystem;
using perfbench::steady;
using perfbench::workload;

/// Worker count of the warm-up and of the reference batch whose digests
/// every later run must reproduce; timed runs at one worker thereby check
/// 1 against 2 workers.
constexpr unsigned kReferenceWorkers = 2;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string workdir;
  std::string result;
  std::string trace_out;
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = std::stoi(v) != 0;
    else if (arg == "--workdir") o.workdir = v;
    else if (arg == "--result") o.result = v;
    else if (arg == "--trace-out") o.trace_out = v;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty() || o.workdir.empty() || o.result.empty()) {
    throw std::invalid_argument("--workload, --workdir and --result are required");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

double since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

// --- correctness ------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Per-job digest of everything deterministic about an outcome.
std::uint64_t digest(const api::job_outcome& o) {
  const api::tool_result& r = o.result;
  std::string s;
  const auto field = [&s](const auto& v) {
    if constexpr (std::is_convertible_v<decltype(v), std::string>) {
      s += v;
    } else {
      s += std::to_string(v);
    }
    s += '|';
  };
  field(static_cast<int>(o.state));
  field(o.store_hit);
  field(r.success);
  field(r.verified);
  if (r.mapping) {
    const auto list = [&field](const auto& values) {
      field(values.size());
      for (const auto v : values) field(v);
    };
    list(r.mapping->bank_functions());
    list(r.mapping->row_bits());
    list(r.mapping->column_bits());
    field(r.mapping->address_bits());
  }
  field(r.measurement_count);
  field(std::llround(r.virtual_seconds * 1e9));
  return fnv1a(s);
}

/// A fleet job built as an exact hit whose stored mapping the verifier
/// refuted, so it re-ran as a full recovery.
bool refuted(const workload& w, const api::job_outcome& o, std::size_t i) {
  return w.expected_hits[i] == "verify" && o.store_hit == "requeued";
}

/// Throws std::runtime_error naming the first job that breaks a check.
void check(const workload& w, const std::vector<api::job_outcome>& outcomes,
           const std::vector<std::uint64_t>& reference, const char* what) {
  if (outcomes.size() != w.jobs.size()) {
    throw std::runtime_error(std::string(what) + ": outcome count mismatch");
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const api::job_outcome& o = outcomes[i];
    const std::string job = std::string(what) + ": job " + std::to_string(i) +
                            " (" + w.jobs[i].machine.label() + " " +
                            w.jobs[i].machine.cpu_model + ", " +
                            w.jobs[i].tool + ", seed " +
                            std::to_string(w.jobs[i].seed) + ")";
    if (o.state != api::job_state::completed) {
      throw std::runtime_error(job + " did not complete: " +
                               o.result.failure_reason);
    }
    // The verifier rarely refutes a genuine entry (about one verify job in
    // ten thousand); the job then re-runs as a full recovery of the same
    // mapping, which keeps every later verdict unchanged.
    if (o.store_hit != w.expected_hits[i] && !refuted(w, o, i)) {
      throw std::runtime_error(job + " got store verdict '" + o.store_hit +
                               "', built for '" + w.expected_hits[i] + "'");
    }
    if (o.result.tool == "dramdig" && o.result.success && !o.result.verified) {
      throw std::runtime_error(job + " claimed a wrong mapping");
    }
    if (!reference.empty() && digest(o) != reference[i]) {
      throw std::runtime_error(job + " result differs from the reference run");
    }
  }
}

// --- running the workload ---------------------------------------------------

struct pass {
  double wall = 0.0;  ///< host seconds of the timed drain
  std::vector<api::job_outcome> outcomes;  ///< by job index
  std::vector<perfbench::job_trace> traces;       ///< traced passes only
  std::uint64_t document_bytes_start = 0;  ///< fleet, sequential passes only
  std::uint64_t document_bytes_end = 0;
};

/// Fleet: every run starts from a byte-identical copy of the primed store.
std::unique_ptr<dramdig::store::mapping_store> fresh_store(
    const workload& w, const std::string& live) {
  fs::copy_file(w.primed_store, live, fs::copy_options::overwrite_existing);
  auto store = std::make_unique<dramdig::store::mapping_store>(live);
  if (!store->load_warning().empty() || store->size() != w.primed_entries) {
    throw std::runtime_error("primed store did not load: " +
                             store->load_warning());
  }
  return store;
}

/// One batch at `threads` workers: run() for storeless workloads, a
/// serve() drain of the whole job list for the fleet.
pass run_batch(const workload& w, unsigned threads, const std::string& workdir) {
  pass p;
  if (!w.uses_store()) {
    const api::mapping_service service({.threads = threads});
    const auto t0 = steady::now();
    p.outcomes = service.run(w.jobs);
    p.wall = since(t0);
    return p;
  }
  const std::string live = workdir + "/fleet_live.json";
  const auto store = fresh_store(w, live);
  const api::mapping_service service({.threads = threads, .store = store.get()});
  api::job_feed feed;
  for (const api::job_spec& job : w.jobs) feed.push(job);
  feed.close();
  p.outcomes.resize(w.jobs.size());
  const auto t0 = steady::now();
  const std::size_t served = service.serve(
      feed, [&](const api::served_outcome& s) {
        p.outcomes[s.ticket - 1] = s.outcome;
      });
  p.wall = since(t0);
  if (served != w.jobs.size()) throw std::runtime_error("feed not drained");
  return p;
}

/// Absorbs lazy set-up (worker-pool spawn, decode dispatch, first
/// environments) with the first job of each machine, run at two workers
/// without a store. The fleet skips it: priming its store already runs
/// recoveries through the service. Returns the number of jobs run.
std::size_t warm_up(const workload& w) {
  if (w.uses_store()) return 0;
  std::vector<api::job_spec> jobs;
  std::set<int> machines;
  for (const api::job_spec& job : w.jobs) {
    if (machines.insert(job.machine.number).second) jobs.push_back(job);
  }
  const api::mapping_service service({.threads = kReferenceWorkers});
  for (const api::job_outcome& o : service.run(jobs)) {
    if (o.state != api::job_state::completed) {
      throw std::runtime_error("warm-up job did not complete: " +
                               o.result.failure_reason);
    }
  }
  return jobs.size();
}

/// One worker, jobs fed one at a time through run(); traced when
/// `recorder` is set. The fleet store stays live across the pass, which
/// is serve() semantics with one worker.
pass run_sequential(const workload& w, const std::string& workdir,
                    perfbench::span_recorder* recorder) {
  pass p;
  const std::string live = workdir + "/fleet_live.json";
  std::unique_ptr<dramdig::store::mapping_store> store;
  if (w.uses_store()) {
    store = fresh_store(w, live);
    p.document_bytes_start = fs::file_size(live);
  }
  const api::mapping_service service({.threads = 1, .store = store.get()});
  const auto t0 = steady::now();
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (recorder != nullptr) recorder->begin(i);
    p.outcomes.push_back(service.run({w.jobs[i]}, recorder).front());
    if (recorder != nullptr) p.traces.push_back(recorder->finish());
  }
  p.wall = since(t0);
  if (store) p.document_bytes_end = fs::file_size(live);
  return p;
}

// --- output -----------------------------------------------------------------

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void write_result(const std::string& path, std::size_t attempted,
                  double setup_s, double reference_peak_rss_mb,
                  const std::vector<metric>& metrics) {
  dramdig::json_writer out;
  out.begin_object();
  out.key("correct").value(true);
  out.key("attempted").value(attempted);
  out.key("failed").value(0);
  out.key("setup_s").value(setup_s);
  out.key("reference_peak_rss_mb").value(reference_peak_rss_mb);
  out.key("metrics").begin_object();
  for (const metric& m : metrics) {
    out.key(m.name).begin_object();
    out.key("value").value(m.value);
    out.key("unit").value(m.unit);
    out.end_object();
  }
  out.end_object();
  out.end_object();
  dramdig::write_file(path, out.str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> job_walls_ms(const pass& p) {
  std::vector<double> v;
  for (const api::job_outcome& o : p.outcomes) v.push_back(o.wall_seconds * 1e3);
  return v;
}

/// --trace 0: the end-to-end metrics.
std::size_t timed_runs(const options& opt, const workload& w,
                       const pass& reference,
                       const std::vector<std::uint64_t>& digests,
                       std::vector<metric>& out) {
  std::vector<double> jobs_per_s, p50, tail, ns_per_measurement;
  perfbench::tail_stat wall_tail;
  std::size_t attempted = 0;
  const auto t0 = steady::now();
  do {
    const pass p = run_batch(w, w.threads, opt.workdir);
    check(w, p.outcomes, digests, "timed batch");
    attempted += p.outcomes.size();
    double wall_sum = 0.0, measurements = 0.0;
    for (const api::job_outcome& o : p.outcomes) {
      wall_sum += o.wall_seconds;
      measurements += static_cast<double>(o.result.measurement_count);
    }
    jobs_per_s.push_back(static_cast<double>(p.outcomes.size()) / p.wall);
    p50.push_back(perfbench::median(job_walls_ms(p)));
    wall_tail = perfbench::tail_percentile(job_walls_ms(p));
    tail.push_back(wall_tail.value);
    ns_per_measurement.push_back(wall_sum * 1e9 / measurements);
  } while (since(t0) < opt.seconds);

  std::vector<double> virtual_s;
  double measurements = 0.0, verified = 0.0;
  for (const api::job_outcome& o : reference.outcomes) {
    virtual_s.push_back(o.result.virtual_seconds);
    measurements += static_cast<double>(o.result.measurement_count);
    verified += o.result.verified ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(reference.outcomes.size());
  const perfbench::tail_stat virtual_tail = perfbench::tail_percentile(virtual_s);
  double virtual_sum = 0.0;
  for (const double v : virtual_s) virtual_sum += v;

  out = {
      {"jobs_per_s", perfbench::median(jobs_per_s), "1/s"},
      {"job_wall_ms_p50", perfbench::median(p50), "ms"},
      {"job_wall_ms_tail", perfbench::median(tail), "ms"},
      {"host_ns_per_measurement", perfbench::median(ns_per_measurement), "ns"},
      {"virtual_s_mean", virtual_sum / n, "s"},
      {"virtual_s_tail", virtual_tail.value, "s"},
      {"measurements_mean", measurements / n, "count"},
      {"verified_rate", verified / n, "ratio"},
  };
  std::printf("%s: %zu batches of %zu jobs at %u workers\n", w.name.c_str(),
              jobs_per_s.size(), w.jobs.size(), w.threads);
  std::printf("  job_wall_ms_tail is p%g of %zu jobs per batch (%zu beyond)\n",
              wall_tail.percentile, wall_tail.samples, wall_tail.beyond);
  std::printf("  virtual_s_tail is p%g of %zu jobs (%zu beyond)\n",
              virtual_tail.percentile, virtual_tail.samples,
              virtual_tail.beyond);
  return attempted;
}

/// --trace 1: the per-layer metrics and the trace file.
std::size_t traced_runs(const options& opt, const workload& w,
                        const std::vector<std::uint64_t>& digests,
                        std::vector<metric>& out) {
  std::vector<perfbench::job_trace> traces;
  std::vector<double> ratios;
  perfbench::layer_inputs in;
  std::size_t attempted = 0;
  const auto t0 = steady::now();
  do {
    // Alternate which pass goes first, so drift does not bias the ratio.
    const bool traced_first = ratios.size() % 2 == 1;
    perfbench::span_recorder recorder(steady::now());
    pass traced, plain;
    if (traced_first) traced = run_sequential(w, opt.workdir, &recorder);
    plain = run_sequential(w, opt.workdir, nullptr);
    if (!traced_first) traced = run_sequential(w, opt.workdir, &recorder);
    check(w, plain.outcomes, digests, "untraced 1-worker pass");
    check(w, traced.outcomes, digests, "traced 1-worker pass");
    attempted += plain.outcomes.size() + traced.outcomes.size();
    ratios.push_back(traced.wall / plain.wall);
    if (traces.empty()) {
      in.document_bytes_start = traced.document_bytes_start;
      in.document_bytes_end = traced.document_bytes_end;
      if (!opt.trace_out.empty()) {
        const std::string doc = perfbench::chrome_trace(w, traced.traces);
        dramdig::write_file(opt.trace_out, doc);
        const auto parsed =
            dramdig::json_value::parse(dramdig::read_file(opt.trace_out));
        if (parsed.at("traceEvents").size() == 0) {
          throw std::runtime_error("trace file holds no events");
        }
      }
    }
    traces.insert(traces.end(), traced.traces.begin(), traced.traces.end());
  } while (since(t0) < opt.seconds);

  // Environment construction, timed as its own call per job spec.
  double env_s = 0.0;
  for (const api::job_spec& job : w.jobs) {
    const auto e0 = steady::now();
    const dramdig::core::environment env(job.machine, job.seed);
    env_s += since(e0);
  }
  in.env_construct_ms = env_s * 1e3 / static_cast<double>(w.jobs.size());
  in.sim = perfbench::profile_sim(w, opt.seed);
  in.baselines = perfbench::profile_baselines(opt.seed);
  in.trace_wall_ratio = perfbench::median(ratios);

  for (const auto& [name, value] : perfbench::layer_metrics(w, traces, in)) {
    out.push_back({name, value, perfbench::layer_unit(name)});
  }
  std::printf("%s: %zu traced + %zu untraced 1-worker passes, tracing "
              "overhead x%.4f\n",
              w.name.c_str(), ratios.size(), ratios.size(),
              in.trace_wall_ratio);
  if (!opt.trace_out.empty()) {
    std::printf("  trace of the first traced pass: %s\n", opt.trace_out.c_str());
  }
  return attempted;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options opt = parse(argc, argv);
    fs::remove_all(opt.workdir);
    fs::create_directories(opt.workdir);

    const auto setup0 = steady::now();
    const workload w = perfbench::make_workload(opt.workload, opt.seed,
                                                opt.workdir);
    const std::size_t warmed = warm_up(w);
    const double setup_s = since(setup0);
    std::printf("%s: set-up ran %zu warm-up jobs in %.4f s\n", w.name.c_str(),
                warmed, setup_s);

    pass reference = run_batch(w, kReferenceWorkers, opt.workdir);
    check(w, reference.outcomes, {}, "reference batch");
    bool any_refuted = false;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      any_refuted = any_refuted || refuted(w, reference.outcomes[i], i);
    }
    if (any_refuted) {
      // The refuting job's re-recovery overwrites the entry's threshold and
      // pool size, which later jobs of that geometry start from, so their
      // results depend on which ran first. Only a one-worker drain fixes
      // that order.
      std::printf("%s: a stored mapping was refuted; reference digests come "
                  "from a one-worker drain\n", w.name.c_str());
      reference = run_batch(w, 1, opt.workdir);
      check(w, reference.outcomes, {}, "one-worker reference batch");
    }
    // Peak memory after exactly one full batch: the timed loop runs a
    // host-speed-dependent number of batches, and allocator growth across
    // them would make a lifetime peak depend on that count.
    const double reference_peak_rss_mb = peak_rss_mb();
    std::vector<std::uint64_t> digests;
    for (const api::job_outcome& o : reference.outcomes) {
      digests.push_back(digest(o));
    }

    std::vector<metric> metrics;
    std::size_t attempted = reference.outcomes.size();
    if (!opt.setup_only) {
      attempted = opt.trace ? traced_runs(opt, w, digests, metrics)
                            : timed_runs(opt, w, reference, digests, metrics);
    }
    write_result(opt.result, attempted, setup_s, reference_peak_rss_mb,
                 metrics);
    fs::remove_all(opt.workdir);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: FAILED: %s\n", e.what());
    return 1;
  }
}
