// Concurrent job engine over the unified tool API.
//
// A batch of `job_spec`s — each naming a machine, a registry tool, its
// options and an environment seed — is executed across a worker pool and
// returned as one `job_outcome` per submission index. The determinism
// contract: every job owns its environment and rng, so `outcome[i]` is a
// pure function of `jobs[i]` alone and the batch output (wall time aside)
// is bit-identical to a sequential loop on any thread count and under any
// submission order. Workers drain a shared atomic queue (the thread plumbing
// of util/parallel.h), so a long job — DRAMA burning its 2-hour budget on a
// noisy unit — never serializes the jobs behind it.
//
// Progress observers receive job start / per-phase / done events, mutex-
// serialized so one observer can safely aggregate across workers; a
// cancellation token stops jobs that have not started while completed
// results stay intact.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/tool.h"
#include "dram/presets.h"
#include "store/mapping_store.h"

namespace dramdig::api {

/// One unit of work. The machine spec is held by value: jobs own their
/// device-under-test, which is what makes them order- and thread-agnostic.
struct job_spec {
  dram::machine_spec machine;
  std::string tool;       ///< registry name ("dramdig", "drama", "xiao")
  tool_options options{};
  std::uint64_t seed = 1;  ///< environment seed (machine + OS randomness)
  /// Daemon-feed ordering only: job_feed pops higher priorities first
  /// (FIFO within one priority). run() batches ignore it — batch results
  /// merge by submission index regardless of execution order.
  int priority = 0;
};

enum class job_state { pending, running, completed, failed, cancelled };

struct job_outcome {
  std::size_t index = 0;  ///< submission index (results merge by this)
  job_state state = job_state::pending;
  /// Filled for completed jobs; failed jobs carry the exception text in
  /// result.failure_reason; cancelled jobs keep it default-initialized.
  tool_result result;
  /// Host wall time of the run — the only non-deterministic field, which is
  /// why it lives here and not inside tool_result.
  double wall_seconds = 0.0;
  /// Fleet-store consultation verdict for this job. Empty when no store is
  /// configured or the tool is not "dramdig"; otherwise:
  ///   "cold"     — no entry; full recovery ran (and seeded the store),
  ///   "verify"   — exact fingerprint hit; a few hundred designed probes
  ///                confirmed the stored mapping (store/verify.h),
  ///   "warm"     — geometry-only hit; full recovery ran warm-started
  ///                from the stored evidence,
  ///   "requeued" — exact hit whose verification FAILED; the job re-ran
  ///                as a full recovery and overwrote the poisoned entry.
  std::string store_hit;
  /// Why the store save that should have persisted this job's update
  /// failed (the exception text). Empty when it succeeded, when the job
  /// had no update, or without a store. The result stands either way:
  /// persistence is best-effort, but the caller learns it was lost.
  std::string store_error;
};

/// Job lifecycle events. Calls are serialized by the service (one observer
/// mutex), so implementations may mutate shared state without locking; they
/// arrive from worker threads, interleaved across jobs but ordered within
/// one job (start, then phases, then done). A cancelled job never starts:
/// it receives a single on_job_done whose outcome has state `cancelled`
/// and a result carrying only the tool name and outcome label.
class progress_observer {
 public:
  virtual ~progress_observer() = default;
  virtual void on_job_start(std::size_t /*index*/, const job_spec& /*job*/) {}
  virtual void on_job_phase(std::size_t /*index*/, std::string_view /*phase*/,
                            const core::phase_stats& /*delta*/) {}
  virtual void on_job_done(std::size_t /*index*/,
                           const job_outcome& /*outcome*/) {}
};

/// Cooperative cancellation: flip once, observed by workers before each
/// job claim, and passed to every tool's run() as its abort predicate
/// (core::run_hooks::should_abort). Pending jobs never start; a running
/// job with internal abort points (DRAMA polls between trials, Xiao at
/// stage boundaries and per scanned bit) stops at its next boundary and
/// completes with outcome "aborted", letting a driver kill a hopeless unit
/// before its budget expires; DRAMDig (minutes-scale, no abort points)
/// runs to completion.
class cancellation_token {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

struct service_config {
  /// Worker threads; 0 means default_shard_count(). 1 reproduces a plain
  /// sequential loop exactly (the determinism tests pin this).
  unsigned threads = 0;
  /// Fleet mapping store consulted before dispatching "dramdig" jobs (not
  /// owned; nullptr = no store, every job runs cold with store_hit empty).
  /// Batch semantics preserve the determinism contract: every lookup runs
  /// against the store state at run() entry, in submission order, and all
  /// updates apply after the batch in submission order — so outcome[i] is
  /// still a pure function of (jobs[i], store-at-entry).
  store::mapping_store* store = nullptr;
};

/// Streaming job source for daemon mode: producers push prioritized specs
/// (higher priority pops first, FIFO within a priority), consumers inside
/// mapping_service::serve pop them as workers free up. close() ends the
/// stream: serve() returns once the queue drains. push() after close is
/// dropped (returns 0) with a logged warning naming the job's machine and
/// tool, so racing producers degrade instead of throwing — but the
/// dropped work is visible.
class job_feed {
 public:
  /// Enqueue a job (ordering key = job.priority). Returns a nonzero
  /// ticket identifying the job in served outcomes, or 0 when the feed is
  /// already closed and the job was dropped.
  std::uint64_t push(job_spec job);
  void close();
  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t pending() const;

 private:
  friend class mapping_service;
  struct item {
    job_spec job;
    std::uint64_t ticket = 0;
  };
  /// Blocking pop of the highest-priority item; empty = closed and drained.
  std::optional<item> pop();

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<item> heap_;
  std::uint64_t next_ticket_ = 1;
  bool closed_ = false;
};

/// One daemon-mode result, streamed to the serve() sink as soon as the
/// job finishes (sink calls are mutex-serialized, like observers).
struct served_outcome {
  std::uint64_t ticket = 0;
  int priority = 0;
  job_spec job;
  job_outcome outcome;  ///< index = claim sequence number (wall order)
  /// The outcome as one self-contained JSON object ({ticket, priority,
  /// machine, tool, seed, state, store_hit, store_error, wall_seconds,
  /// result}) — the per-job streaming record a daemon writes to its
  /// result log.
  std::string json;
};

class mapping_service {
 public:
  explicit mapping_service(service_config config = {});

  /// Execute the batch; returns one outcome per job, by submission index.
  /// Throws contract_violation up front if any spec names an unknown tool;
  /// exceptions inside a job mark that job failed without sinking the batch.
  /// With a store configured, dramdig jobs consult it first (see
  /// job_outcome::store_hit) and successful recoveries persist back to it
  /// in one save after the batch, skipped when no job updated the store
  /// (a failed save logs a warning and lands in the store_error of every
  /// job whose update it lost; it never fails the batch). Before
  /// returning, the heap the jobs freed goes back to the OS
  /// (util/heap.h), so the process's resident memory between batches does
  /// not depend on which pool threads ran jobs.
  [[nodiscard]] std::vector<job_outcome> run(
      const std::vector<job_spec>& jobs,
      progress_observer* observer = nullptr,
      cancellation_token* cancel = nullptr) const;

  /// Daemon mode: drain `feed` until it is closed and empty, dispatching
  /// jobs across the persistent worker pool (util/parallel.h) as they
  /// arrive and streaming each result to `sink`. Store consultation and
  /// persistence happen per job against the live store (a daemon's whole
  /// point is that later jobs see earlier recoveries), so serve() trades
  /// run()'s batch determinism for incremental warm-starts — documented,
  /// not accidental. Cancellation drains remaining jobs as cancelled
  /// outcomes; the producer still owns close(). Returns jobs served,
  /// after releasing the freed heap like run().
  using result_sink = std::function<void(const served_outcome&)>;
  std::size_t serve(job_feed& feed, const result_sink& sink,
                    cancellation_token* cancel = nullptr) const;

 private:
  struct dispatch_plan;
  void execute_job(const job_spec& job, const dispatch_plan& plan,
                   job_outcome& out,
                   std::optional<store::store_entry>& update,
                   const core::run_hooks& hooks) const;
  /// The per-job body run() and serve() share. When `hooks` already
  /// request an abort the job is marked cancelled without running.
  /// Otherwise the job is marked running,
  /// `on_start` fires, and the job runs under the wall clock — a null
  /// `plan` consults the live store inside the timed span (serve()) — and
  /// a throw marks the job failed and drops its store update.
  template <class OnStart>
  void run_job(const job_spec& job, const dispatch_plan* plan,
               job_outcome& out, std::optional<store::store_entry>& update,
               const core::run_hooks& hooks, OnStart&& on_start) const;
  /// Put every engaged update into the store and save() it when at least
  /// one was put. Returns the failed save's error text (also logged as a
  /// warning), else empty. No-op without a store.
  std::string persist(
      std::span<std::optional<store::store_entry>> updates) const;

  service_config config_;
};

}  // namespace dramdig::api
