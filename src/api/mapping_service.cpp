#include "api/mapping_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <utility>

#include "core/environment.h"
#include "store/verify.h"
#include "sysinfo/system_info.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/heap.h"
#include "util/json.h"
#include "util/log.h"
#include "util/parallel.h"

namespace dramdig::api {

namespace {

/// Lanes a service may run: `threads` (0 = default_shard_count()), never
/// more than default_shard_count(), however many threads were asked for.
unsigned lane_cap(unsigned threads) {
  const unsigned cap = default_shard_count();
  return threads == 0 ? cap : std::min(threads, cap);
}

const char* state_name(job_state s) {
  switch (s) {
    case job_state::pending: return "pending";
    case job_state::completed: return "completed";
    case job_state::failed: return "failed";
  }
  return "unknown";
}

/// Build the store entry a successful recovery persists.
store::store_entry entry_from_result(const sysinfo::machine_fingerprint& fp,
                                     const job_spec& job,
                                     const tool_result& result,
                                     const char* kind,
                                     std::vector<store::verification_event>
                                         prior_history) {
  store::store_entry e;
  e.fingerprint = fp;
  e.bank_functions = result.mapping->bank_functions();
  e.row_bits = result.mapping->row_bits();
  e.column_bits = result.mapping->column_bits();
  e.address_bits = result.mapping->address_bits();
  e.pool_size = result.pool_size;
  e.threshold_ns = result.threshold_ns;
  e.history = std::move(prior_history);
  store::append_history(e.history, {kind, job.seed, result.measurement_count});
  return e;
}

/// Synthesize the tool_result of a verification-only job: the stored
/// mapping, re-checked by designed probes instead of re-derived. Graded
/// like every other job, so a warm re-run is bit-comparable to a cold one
/// on everything but cost.
tool_result result_from_verification(const store::store_entry& entry,
                                     const store::verify_report& vr) {
  tool_result out;
  out.tool = "dramdig";
  out.success = true;
  out.mapping = entry.mapping();
  out.outcome = "verified";
  out.detail = "store hit: " + std::to_string(vr.deltas_tested) +
               " designed probes, 0 mismatches";
  out.phases = {{"verify", vr.totals.seconds, vr.totals.measurements, 0}};
  out.virtual_seconds = vr.totals.seconds;
  out.measurement_count = vr.totals.measurements;
  out.access_count = vr.totals.accesses;
  out.pool_size = entry.pool_size;
  out.assumed_bank_count = out.mapping->bank_count();
  out.threshold_ns = vr.threshold_ns;
  return out;
}

/// The one grading rule, applied to every job: a successful result's
/// mapping checked against the simulated ground truth. DRAMA claims only
/// the bank-function span — its fixed 13-column row heuristic is an
/// assumption, not an output — so span match is its correctness notion
/// (the one Table I scores); every other result must match the whole
/// mapping.
void grade(tool_result& result, const dram::address_mapping& truth) {
  result.verified =
      result.success && result.mapping &&
      (result.tool == "drama"
           ? gf2::same_span(result.mapping->bank_functions(),
                            truth.bank_functions())
           : result.mapping->equivalent_to(truth));
}

/// Run the named built-in tool on `env`.
tool_result run_tool(const std::string& name, const tool_options& options,
                     core::environment& env,
                     const core::phase_callback& on_phase) {
  if (name == "dramdig") {
    return core::dramdig_tool(env, options.dramdig()).run(on_phase);
  }
  if (name == "drama") {
    return baselines::drama_tool(env, options.drama()).run(on_phase);
  }
  DRAMDIG_EXPECTS(name == "xiao");
  return baselines::xiao_tool(env, options.xiao()).run(on_phase);
}

/// True when `name` is one of the built-in tools.
bool known_tool(const std::string& name) {
  return std::ranges::binary_search(tool_names(), name);
}

}  // namespace

// --- job_feed ---------------------------------------------------------------

std::uint64_t job_feed::push(job_spec job) {
  DRAMDIG_EXPECTS(known_tool(job.tool));
  std::scoped_lock lock(mutex_);
  if (closed_) {
    // Racing producers degrade instead of throwing, but a dropped job is
    // work that silently never runs — say which one.
    log_warn("job_feed: dropping push after close (machine " +
             job.machine.label() + ", tool '" + job.tool + "')");
    return 0;
  }
  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back(item{std::move(job), ticket});
  ready_.notify_one();
  return ticket;
}

void job_feed::close() {
  std::scoped_lock lock(mutex_);
  closed_ = true;
  ready_.notify_all();
}

std::optional<job_feed::item> job_feed::pop() {
  std::unique_lock lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;
  std::optional<item> out(std::move(queue_.front()));
  queue_.pop_front();
  return out;
}

// --- mapping_service --------------------------------------------------------

/// Store consultation verdict for one job, decided before execution.
struct mapping_service::dispatch_plan {
  enum class kind { none, cold, verify, warm } decision = kind::none;
  std::optional<store::store_entry> entry;  ///< verify/warm source entry
  sysinfo::machine_fingerprint fp;

  static dispatch_plan consult(const job_spec& job,
                               store::mapping_store* store) {
    dispatch_plan plan;
    if (store == nullptr || job.tool != "dramdig") return plan;
    plan.fp = sysinfo::fingerprint(job.machine);
    if (auto hit = store->find_exact(plan.fp)) {
      plan.decision = kind::verify;
      plan.entry = std::move(hit);
    } else if (auto near = store->find_geometry(plan.fp)) {
      plan.decision = kind::warm;
      plan.entry = std::move(near);
    } else {
      plan.decision = kind::cold;
    }
    return plan;
  }
};

mapping_service::mapping_service(service_config config)
    : config_(std::move(config)) {}

void mapping_service::execute_job(const job_spec& job,
                                  const dispatch_plan& plan, job_outcome& out,
                                  std::optional<store::store_entry>& update,
                                  const core::phase_callback& on_phase) const {
  using kind = dispatch_plan::kind;
  std::vector<store::verification_event> prior_history;
  const char* record_kind = "recovered";
  tool_options options = job.options;
  core::run_totals refuted;  // cost of a refuted verification

  if (plan.decision == kind::verify) {
    // Exact fingerprint hit: a few hundred designed probes spot-check the
    // stored functions instead of re-deriving them.
    core::environment verify_env(job.machine, job.seed);
    const store::verify_report vr =
        store::verify_stored_mapping(verify_env, *plan.entry);
    if (vr.verified) {
      out.result = result_from_verification(*plan.entry, vr);
      out.state = job_state::completed;
      out.store_hit = "verify";
      update = *plan.entry;
      store::append_history(update->history,
                            {"verified", job.seed, vr.totals.measurements});
      return;
    }
    // Refuted: re-queue as a full recovery. Fresh environment, no hints —
    // the re-run is bit-identical to a cold job, and the poisoned entry
    // is overwritten below with the verify_failed event on its record.
    out.store_hit = "requeued";
    refuted = vr.totals;
    prior_history = plan.entry->history;
    store::append_history(prior_history,
                          {"verify_failed", job.seed, vr.totals.measurements});
    log_warn("mapping store entry refuted (" + vr.failure_reason +
             "); re-queued as full recovery");
  } else if (plan.decision == kind::warm) {
    // Geometry sibling: full recovery, warm-started from the stored
    // mapping and threshold (dramdig_config::warm).
    core::dramdig_config cfg = options.dramdig();
    cfg.warm = core::dramdig_config::warm_hints{plan.entry->mapping(),
                                                plan.entry->threshold_ns};
    options.with_dramdig(std::move(cfg));
    out.store_hit = "warm";
    record_kind = "warm_recovered";
  } else if (plan.decision == kind::cold) {
    out.store_hit = "cold";
  }

  core::environment env(job.machine, job.seed);
  out.result = run_tool(job.tool, options, env, on_phase);
  out.state = job_state::completed;

  if (plan.decision != kind::none && out.result.success &&
      out.result.mapping) {
    update = entry_from_result(plan.fp, job, out.result, record_kind,
                               std::move(prior_history));
  }
  if (plan.decision == kind::verify) {
    // The requeued job also paid for the verification that refuted the
    // entry (its history event counts only the re-run): it leads the
    // record as the phase a verify hit reports.
    out.result.phases.insert(out.result.phases.begin(),
                             {"verify", refuted.seconds,
                              refuted.measurements, 0});
    out.result.virtual_seconds += refuted.seconds;
    out.result.measurement_count += refuted.measurements;
    out.result.access_count += refuted.accesses;
  }
}

template <class OnStart>
void mapping_service::run_job(const job_spec& job, const dispatch_plan* plan,
                              job_outcome& out,
                              std::optional<store::store_entry>& update,
                              const core::phase_callback& on_phase,
                              OnStart&& on_start) const {
  on_start();
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<dispatch_plan> live;
  if (plan == nullptr) {
    plan = &live.emplace(dispatch_plan::consult(job, config_.store));
  }
  try {
    execute_job(job, *plan, out, update, on_phase);
    grade(out.result, job.machine.mapping);
  } catch (const std::exception& e) {
    out.state = job_state::failed;
    out.result.tool = job.tool;
    out.result.outcome = "error";
    out.result.failure_reason = e.what();
    update.reset();
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::string mapping_service::persist(
    std::span<std::optional<store::store_entry>> updates) const {
  if (config_.store == nullptr) return {};
  bool changed = false;
  for (std::optional<store::store_entry>& update : updates) {
    if (!update) continue;
    config_.store->put(std::move(*update));
    changed = true;
  }
  // Nothing put, nothing to write: the document on disk is already this
  // store (or the corrupt file a failed load left, which stays until the
  // next real save).
  if (!changed) return {};
  try {
    config_.store->save();
  } catch (const std::exception& e) {
    // Persistence is best-effort: a read-only disk costs the next run a
    // cold start, it must not fail a batch that already computed. The
    // caller still hears of it through job_outcome::store_error.
    log_warn(std::string("mapping store save failed: ") + e.what());
    return e.what();
  }
  return {};
}

std::vector<job_outcome> mapping_service::run(
    const std::vector<job_spec>& jobs, progress_observer* observer) const {
  // Malformed specs fail the whole batch up front, before any lane runs
  // (tool options were already validated when the builder set them).
  for (const job_spec& job : jobs) DRAMDIG_EXPECTS(known_tool(job.tool));

  std::vector<job_outcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;

  // Store lookups run sequentially against the state at batch entry, so a
  // recovery completing mid-batch can never flip a sibling job from cold
  // to verify depending on thread timing — outcome[i] stays a pure
  // function of (jobs[i], store-at-entry). Updates apply after the batch,
  // in submission order (daemon mode trades this for live consultation).
  std::vector<dispatch_plan> plans;
  plans.reserve(jobs.size());
  for (const job_spec& job : jobs) {
    plans.push_back(dispatch_plan::consult(job, config_.store));
  }
  std::vector<std::optional<store::store_entry>> updates(jobs.size());

  const unsigned lanes = static_cast<unsigned>(std::min<std::size_t>(
      lane_cap(config_.threads), jobs.size()));

  // Lanes drain a shared queue; each claimed job is self-contained (own
  // environment, own rng), so the claim order never reaches the results —
  // only the wall clock.
  std::atomic<std::size_t> next{0};
  std::mutex observer_mutex;
  const auto notify = [&](const auto& fire) {
    if (observer == nullptr) return;
    std::scoped_lock lock(observer_mutex);
    fire();
  };

  run_lanes(lanes, [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      const job_spec& job = jobs[i];
      core::phase_callback on_phase;
      if (observer != nullptr) {
        on_phase = [&notify, &observer, i](std::string_view phase,
                                           const core::phase_stats& delta) {
          notify([&] { observer->on_job_phase(i, phase, delta); });
        };
      }
      run_job(job, &plans[i], outcomes[i], updates[i], on_phase, [&] {
        notify([&] { observer->on_job_start(i, job); });
      });
      notify([&] { observer->on_job_done(i, outcomes[i]); });
    }
  });

  const std::string store_error = persist(updates);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // persist() moved each entry out but left its optional engaged.
    if (updates[i]) outcomes[i].store_error = store_error;
  }
  // Every job's tables are dead now; without this the malloc arenas of the
  // threads that happened to run jobs keep their pages.
  release_free_heap();
  return outcomes;
}

std::size_t mapping_service::serve(job_feed& feed,
                                   const result_sink& sink) const {
  std::mutex sink_mutex;
  std::atomic<std::size_t> served{0};

  run_lanes(lane_cap(config_.threads), [&] {
    while (std::optional<job_feed::item> item = feed.pop()) {
      served_outcome record{item->ticket, std::move(item->job), job_outcome{},
                            {}};
      job_outcome& out = record.outcome;
      // Live store consultation (no plan passed): a daemon's later jobs
      // should see its earlier recoveries, so lookup happens at claim time
      // and the update (plus save) lands before the next claim of the same
      // fingerprint on this lane.
      std::optional<store::store_entry> update;
      run_job(record.job, nullptr, out, update, {}, [] {});
      out.store_error = persist({&update, 1});
      {
        json_writer w;
        w.begin_object();
        w.key("ticket").value(record.ticket);
        w.key("machine").value(record.job.machine.number);
        w.key("tool").value(record.job.tool);
        w.key("seed").value(record.job.seed);
        w.key("state").value(state_name(out.state));
        w.key("store_hit").value(out.store_hit);
        w.key("store_error").value(out.store_error);
        w.key("wall_seconds").value(out.wall_seconds);
        w.key("result");
        out.result.to_json(w);
        w.end_object();
        record.json = w.str();
      }
      served.fetch_add(1, std::memory_order_relaxed);
      if (sink) {
        std::scoped_lock lock(sink_mutex);
        sink(record);
      }
    }
  });
  release_free_heap();
  return served.load(std::memory_order_relaxed);
}

}  // namespace dramdig::api
