#include "trace.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/environment.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace api = dramdig::api;

namespace {

constexpr std::string_view kProbePrefix = "probe:";

/// The module that emitted an interval's closing event.
const char* layer_of(std::string_view name) {
  if (name == "calibration") return "timing";
  if (name == "verify") return "store";
  if (name == "done") return "api";
  return "core";  // coarse, selection, partition, functions, fine
}

/// "done" closes the tail after the last named event: result assembly and
/// ground-truth checks that no phase event covers.
bool is_named(const span& s) { return s.name != "done"; }

double ms(double seconds) { return seconds * 1e3; }

struct mean_acc {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  [[nodiscard]] double mean() const {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer catalogue: name and unit, in reporting order.
const std::vector<std::pair<std::string, std::string>>& catalogue() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"api.dispatch_ms", "ms"},
      {"api.unattributed_share", "ratio"},
      {"os.env_construct_ms", "ms"},
      {"timing.calibration.wall_ms", "ms"},
      {"timing.calibration.pairs", "count"},
      {"core.coarse.wall_ms", "ms"},
      {"core.fine.wall_ms", "ms"},
      {"core.coarse_fine.measurements", "count"},
      {"core.probe.votes_cast", "count"},
      {"core.probe.votes_saved_ratio", "ratio"},
      {"core.probe.reused_ratio", "ratio"},
      {"core.selection.wall_ms", "ms"},
      {"core.partition.wall_ms", "ms"},
      {"core.partition.measurements", "count"},
      {"core.partition.bookkeeping_share", "ratio"},
      {"core.attempts_per_job", "count"},
      {"core.functions.wall_ms", "ms"},
      {"core.plan.saved_ratio", "ratio"},
      {"sim.ns_per_measurement", "ns"},
      {"sim.ns_per_measurement.b256", "ns"},
      {"sim.ns_per_measurement.b4096", "ns"},
      {"sim.accesses_per_measurement", "count"},
      {"store.verify_ms", "ms"},
      {"store.save_ms", "ms"},
      {"store.document_bytes.start", "bytes"},
      {"store.document_bytes.end", "bytes"},
      {"store.hit_share.cold", "ratio"},
      {"store.hit_share.verify", "ratio"},
      {"store.hit_share.warm", "ratio"},
      {"store.hit_share.requeued", "ratio"},
      {"store.measurements_mean.cold", "count"},
      {"store.measurements_mean.verify", "count"},
      {"store.measurements_mean.warm", "count"},
      {"store.measurements_mean.requeued", "count"},
      {"baselines.drama.trial_wall_ms", "ms"},
      {"baselines.drama.trials_per_job", "count"},
      {"baselines.drama.ns_per_measurement", "ns"},
      {"trace.wall_ratio", "ratio"},
  };
  return names;
}

}  // namespace

// --- span_recorder ----------------------------------------------------------

double span_recorder::now() const {
  return std::chrono::duration<double>(steady::now() - origin_).count();
}

void span_recorder::begin(std::size_t job) {
  current_ = job_trace{};
  current_.job = job;
  current_.entry = now();
}

job_trace span_recorder::finish() {
  current_.exit = now();
  return std::move(current_);
}

void span_recorder::on_job_start(std::size_t, const api::job_spec&) {
  current_.start = last_ = now();
}

void span_recorder::on_job_phase(std::size_t, std::string_view phase,
                                 const dramdig::core::phase_stats& delta) {
  const double t = now();
  if (phase.starts_with(kProbePrefix)) {
    current_.probes.push_back({std::string(phase.substr(kProbePrefix.size())),
                               t, delta.pairs_used});
    return;
  }
  current_.spans.push_back({std::string(phase), last_, t, delta.measurements,
                            delta.pairs_used, current_.spans.empty()});
  last_ = t;
}

void span_recorder::on_job_done(std::size_t, const api::job_outcome& outcome) {
  const double t = now();
  current_.done = t;
  // A verification job streams no phase events: its one interval is the
  // store's designed-probe check.
  const bool verify = current_.spans.empty() && outcome.store_hit == "verify";
  current_.spans.push_back(
      {verify ? "verify" : "done", last_, t,
       verify ? outcome.result.measurement_count : 0, 0,
       current_.spans.empty()});
  current_.outcome = outcome;
}

// --- simulator profile ------------------------------------------------------

sim_profile profile_sim(const workload& w, std::uint64_t seed) {
  constexpr unsigned kRounds = 1000;  // DRAMDig's rounds_per_measurement
  constexpr std::size_t kMeasurementsPerSize = 32768;
  std::set<int> seen;
  double total_s = 0.0, s256 = 0.0, s4096 = 0.0;
  std::uint64_t total_m = 0, m256 = 0, m4096 = 0, accesses = 0;
  std::vector<dramdig::sim::pair_measurement> out;
  for (const api::job_spec& job : w.jobs) {
    if (!seen.insert(job.machine.number).second) continue;
    dramdig::core::environment env(job.machine, seed);
    auto& mc = env.mach().controller();
    dramdig::rng r(seed ^ static_cast<std::uint64_t>(job.machine.number));
    const std::uint64_t lines = job.machine.memory_bytes / 64;
    for (const std::size_t batch : {std::size_t{256}, std::size_t{4096}}) {
      std::vector<dramdig::sim::addr_pair> pairs(batch);
      for (auto& p : pairs) p = {r.below(lines) * 64, r.below(lines) * 64};
      mc.measure_pairs(pairs, kRounds, out);  // warm the scratch buffers
      const std::uint64_t a0 = mc.access_count();
      const std::uint64_t m0 = mc.measurement_count();
      const auto t0 = steady::now();
      for (std::size_t done = 0; done < kMeasurementsPerSize; done += batch) {
        mc.measure_pairs(pairs, kRounds, out);
      }
      const double s = std::chrono::duration<double>(steady::now() - t0).count();
      const std::uint64_t m = mc.measurement_count() - m0;
      accesses += mc.access_count() - a0;
      total_s += s;
      total_m += m;
      (batch == 256 ? s256 : s4096) += s;
      (batch == 256 ? m256 : m4096) += m;
    }
  }
  sim_profile p;
  p.ns_per_measurement = ratio(total_s * 1e9, static_cast<double>(total_m));
  p.ns_per_measurement_b256 = ratio(s256 * 1e9, static_cast<double>(m256));
  p.ns_per_measurement_b4096 = ratio(s4096 * 1e9, static_cast<double>(m4096));
  p.accesses_per_measurement =
      ratio(static_cast<double>(accesses), static_cast<double>(total_m));
  return p;
}

baselines_profile profile_baselines(std::uint64_t seed) {
  const std::vector<api::job_spec> jobs = drama_jobs(seed);
  const api::mapping_service service({.threads = 1});
  span_recorder recorder(steady::now());
  mean_acc trial;
  double trial_ns = 0.0, trial_m = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    recorder.begin(i);
    const api::job_outcome outcome = service.run({jobs[i]}, &recorder).front();
    if (outcome.state != api::job_state::completed) {
      throw std::runtime_error("DRAMA profile job did not complete: " +
                               outcome.result.failure_reason);
    }
    for (const span& s : recorder.finish().spans) {
      if (s.name != "trial") continue;
      trial.add(ms(s.t1 - s.t0));
      trial_ns += (s.t1 - s.t0) * 1e9;
      trial_m += static_cast<double>(s.measurements);
    }
  }
  return {trial.mean(),
          ratio(static_cast<double>(trial.n), static_cast<double>(jobs.size())),
          ratio(trial_ns, trial_m)};
}

// --- per-layer metrics ------------------------------------------------------

std::map<std::string, double> layer_metrics(const workload& w,
                                            const std::vector<job_trace>& traces,
                                            const layer_inputs& in) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : catalogue()) m[name] = 0.0;

  double wall = 0.0, unattributed = 0.0;
  mean_acc dispatch, save, verify;
  // Pipeline (DRAMDig tool run) phases, summed per job then averaged.
  mean_acc calibration, calibration_pairs, coarse, fine, coarse_fine_meas,
      selection, partition, partition_meas, functions, votes_cast;
  double votes_saved = 0.0, votes_all = 0.0, reused = 0.0;
  double partition_ns = 0.0, partition_m = 0.0, partition_events = 0.0;
  double plan_saved = 0.0, plan_measured = 0.0;
  std::map<std::string, std::size_t> hits;
  std::map<std::string, mean_acc> hit_measurements;

  for (const job_trace& t : traces) {
    const api::tool_result& r = t.outcome.result;
    double named = 0.0;
    std::map<std::string, double> phase_s;
    std::map<std::string, double> phase_m;
    for (const span& s : t.spans) {
      const double d = s.t1 - s.t0;
      if (is_named(s)) named += d;
      phase_s[s.name] += d;
      phase_m[s.name] += static_cast<double>(s.measurements);
      if (s.name == "calibration") calibration_pairs.add(
          static_cast<double>(s.pairs_used));
      if (s.name == "partition") {
        partition_events += 1.0;
        partition_ns += d * 1e9;
        partition_m += static_cast<double>(s.measurements);
      }
      if (s.name == "verify") verify.add(ms(d));
    }
    wall += t.outcome.wall_seconds;
    unattributed += std::max(0.0, t.outcome.wall_seconds - named);
    dispatch.add(ms(t.start - t.entry));
    if (w.uses_store()) {
      save.add(ms(t.exit - t.done));
      ++hits[t.outcome.store_hit];
      hit_measurements[t.outcome.store_hit].add(
          static_cast<double>(r.measurement_count));
    }
    plan_saved += static_cast<double>(r.measurements_saved);
    plan_measured += static_cast<double>(r.measurement_count);
    if (!phase_s.contains("calibration")) continue;

    calibration.add(ms(phase_s["calibration"]));
    coarse.add(ms(phase_s["coarse"]));
    fine.add(ms(phase_s["fine"]));
    coarse_fine_meas.add(phase_m["coarse"] + phase_m["fine"]);
    selection.add(ms(phase_s["selection"]));
    partition.add(ms(phase_s["partition"]));
    partition_meas.add(phase_m["partition"]);
    functions.add(ms(phase_s["functions"]));
    const auto& probe = r.probe_rounds;
    votes_cast.add(static_cast<double>(probe.votes_cast));
    votes_saved += static_cast<double>(probe.votes_saved);
    votes_all += static_cast<double>(probe.votes_cast + probe.votes_saved);
    reused += static_cast<double>(probe.reused_votes);
  }

  m["api.dispatch_ms"] = dispatch.mean();
  m["api.unattributed_share"] = ratio(unattributed, wall);
  m["os.env_construct_ms"] = in.env_construct_ms;
  m["timing.calibration.wall_ms"] = calibration.mean();
  m["timing.calibration.pairs"] = calibration_pairs.mean();
  m["core.coarse.wall_ms"] = coarse.mean();
  m["core.fine.wall_ms"] = fine.mean();
  m["core.coarse_fine.measurements"] = coarse_fine_meas.mean();
  m["core.probe.votes_cast"] = votes_cast.mean();
  m["core.probe.votes_saved_ratio"] = ratio(votes_saved, votes_all);
  m["core.probe.reused_ratio"] = ratio(reused, votes_cast.sum);
  m["core.selection.wall_ms"] = selection.mean();
  m["core.partition.wall_ms"] = partition.mean();
  m["core.partition.measurements"] = partition_meas.mean();
  m["core.partition.bookkeeping_share"] =
      partition_ns > 0.0
          ? 1.0 - partition_m * in.sim.ns_per_measurement / partition_ns
          : 0.0;
  m["core.attempts_per_job"] =
      ratio(partition_events, static_cast<double>(partition.n));
  m["core.functions.wall_ms"] = functions.mean();
  m["core.plan.saved_ratio"] = ratio(plan_saved, plan_measured + plan_saved);
  m["sim.ns_per_measurement"] = in.sim.ns_per_measurement;
  m["sim.ns_per_measurement.b256"] = in.sim.ns_per_measurement_b256;
  m["sim.ns_per_measurement.b4096"] = in.sim.ns_per_measurement_b4096;
  m["sim.accesses_per_measurement"] = in.sim.accesses_per_measurement;
  m["store.verify_ms"] = verify.mean();
  m["store.save_ms"] = save.mean();
  m["store.document_bytes.start"] =
      static_cast<double>(in.document_bytes_start);
  m["store.document_bytes.end"] = static_cast<double>(in.document_bytes_end);
  for (const char* kind : {"cold", "verify", "warm", "requeued"}) {
    m[std::string("store.hit_share.") + kind] =
        ratio(static_cast<double>(hits[kind]),
              static_cast<double>(traces.size()));
    m[std::string("store.measurements_mean.") + kind] =
        hit_measurements[kind].mean();
  }
  m["baselines.drama.trial_wall_ms"] = in.baselines.trial_wall_ms;
  m["baselines.drama.trials_per_job"] = in.baselines.trials_per_job;
  m["baselines.drama.ns_per_measurement"] = in.baselines.ns_per_measurement;
  m["trace.wall_ratio"] = in.trace_wall_ratio;
  return m;
}

std::string layer_unit(const std::string& metric) {
  for (const auto& [name, unit] : catalogue()) {
    if (name == metric) return unit;
  }
  return "count";
}

// --- Chrome trace-event export ----------------------------------------------

std::string chrome_trace(const workload& w,
                         const std::vector<job_trace>& traces) {
  dramdig::json_writer out;
  const auto us = [](double seconds) { return seconds * 1e6; };
  // Opens a complete ("X") event and its args object, holding the job id;
  // the caller adds its own args and closes both objects.
  const auto complete = [&](const std::string& name, const char* cat,
                            double t0, double t1, const job_trace& t) {
    out.begin_object();
    out.key("name").value(name);
    out.key("cat").value(cat);
    out.key("ph").value("X");
    out.key("ts").value(us(t0));
    out.key("dur").value(us(t1 - t0));
    out.key("pid").value(1);
    out.key("tid").value(1);
    out.key("args").begin_object();
    out.key("job").value(t.job);
  };
  out.begin_object();
  out.key("displayTimeUnit").value("ms");
  out.key("otherData").begin_object();
  out.key("workload").value(w.name);
  out.key("jobs").value(traces.size());
  out.end_object();
  out.key("traceEvents").begin_array();
  for (const job_trace& t : traces) {
    const api::job_spec& spec = w.jobs[t.job];
    complete("dispatch", "api", t.entry, t.start, t);
    out.end_object().end_object();
    complete("job " + spec.machine.label() + " " + spec.tool, "api", t.start,
             t.done, t);
    out.key("seed").value(spec.seed);
    out.key("store_hit").value(t.outcome.store_hit);
    out.key("measurements").value(t.outcome.result.measurement_count);
    out.key("virtual_seconds").value(t.outcome.result.virtual_seconds);
    out.end_object().end_object();
    for (const span& s : t.spans) {
      const std::string name =
          s.first && s.name != "verify"
              ? s.name + " (+ environment setup, buffer mapping)"
              : s.name;
      complete(name, layer_of(s.name), s.t0, s.t1, t);
      out.key("measurements").value(s.measurements);
      out.key("pairs_used").value(s.pairs_used);
      out.end_object().end_object();
    }
    for (const probe_mark& p : t.probes) {
      out.begin_object();
      out.key("name").value("probe:" + p.stage);
      out.key("cat").value("core");
      out.key("ph").value("i");
      out.key("s").value("t");
      out.key("ts").value(us(p.t));
      out.key("pid").value(1);
      out.key("tid").value(1);
      out.key("args").begin_object();
      out.key("job").value(t.job);
      out.key("votes").value(p.votes);
      out.end_object().end_object();
    }
    complete(w.uses_store() ? "store.save" : "return",
             w.uses_store() ? "store" : "api", t.done, t.exit, t);
    out.end_object().end_object();
  }
  out.end_array();
  out.end_object();
  return out.str();
}

}  // namespace perfbench
