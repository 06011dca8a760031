// Concurrent job engine over the unified tool API.
//
// A batch of `job_spec`s — each naming a machine, a built-in tool, its
// options and an environment seed — is executed on side-by-side lanes and
// returned as one `job_outcome` per submission index. The determinism
// contract: every job owns its environment and rng, so `outcome[i]` is a
// pure function of `jobs[i]` alone and the batch output (wall time aside)
// is bit-identical to a sequential loop on any thread count and under any
// submission order. Lanes (util/parallel.h's run_lanes) drain a shared
// atomic queue, so a long job — DRAMA burning its 2-hour budget on a noisy
// unit — never serializes the jobs behind it. This is the only level of
// parallelism: each job's simulator runs its measurement batches inline on
// the lane's thread.
//
// Progress observers receive job start / per-phase / done events, mutex-
// serialized so one observer can safely aggregate across lanes. No
// caller stops a job early: each runs until its tool finishes or spends
// its own budget, and a job that throws marks only itself failed.
//
// Daemon mode (`serve()`) drains a FIFO `job_feed` against the live store
// instead, streaming one JSON record per job.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
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
  std::string tool;       ///< one of tool_names() ("dramdig", "drama", "xiao")
  tool_options options{};
  std::uint64_t seed = 1;  ///< environment seed (machine + OS randomness)
};

enum class job_state { pending, completed, failed };

struct job_outcome {
  job_state state = job_state::pending;
  /// Filled for completed jobs; failed jobs carry the exception text in
  /// result.failure_reason.
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
  ///                from the stored mapping,
  ///   "requeued" — exact hit whose verification FAILED; the job re-ran
  ///                as a full recovery and overwrote the poisoned entry.
  ///                Its result is the cold run's, led by the refuted
  ///                verification's "verify" phase, whose cost the totals
  ///                include.
  std::string store_hit;
  /// Why the store save that should have persisted this job's update
  /// failed (the exception text). Empty when it succeeded, when the job
  /// had no update, or without a store. The result stands either way:
  /// persistence is best-effort, but the caller learns it was lost.
  std::string store_error;
};

/// Job lifecycle events. Calls are serialized by the service (one observer
/// mutex), so implementations may mutate shared state without locking; they
/// arrive from the lanes' threads, interleaved across jobs but ordered within
/// one job (start, then phases, then done).
class progress_observer {
 public:
  virtual ~progress_observer() = default;
  virtual void on_job_start(std::size_t /*index*/, const job_spec& /*job*/) {}
  virtual void on_job_phase(std::size_t /*index*/, std::string_view /*phase*/,
                            const core::phase_stats& /*delta*/) {}
  virtual void on_job_done(std::size_t /*index*/,
                           const job_outcome& /*outcome*/) {}
};

struct service_config {
  /// Lanes (threads) running jobs; 0 means default_shard_count(). Never
  /// more than default_shard_count() lanes run, whatever this asks for,
  /// and run() starts no more than it has jobs. 1 runs every job on the
  /// caller's thread, a plain sequential loop (the determinism tests pin
  /// this).
  unsigned threads = 0;
  /// Fleet mapping store consulted before dispatching "dramdig" jobs (not
  /// owned; nullptr = no store, every job runs cold with store_hit empty).
  /// Batch semantics preserve the determinism contract: every lookup runs
  /// against the store state at run() entry, in submission order, and all
  /// updates apply after the batch in submission order — so outcome[i] is
  /// still a pure function of (jobs[i], store-at-entry).
  store::mapping_store* store = nullptr;
};

/// Streaming job source for daemon mode: producers push specs, consumers
/// inside mapping_service::serve pop them in push order (FIFO) as lanes
/// free up. The order matters: with a live store, whether a job is served
/// cold, warm or verify depends on which jobs ran before it. close() ends the
/// stream: serve() returns once the queue drains. push() after close is
/// dropped (returns 0) with a logged warning naming the job's machine and
/// tool, so racing producers degrade instead of throwing — but the
/// dropped work is visible.
class job_feed {
 public:
  /// Enqueue a job. Returns a nonzero ticket identifying the job in served
  /// outcomes (tickets count up from 1 in push order), or 0 when the feed
  /// is already closed and the job was dropped. Throws contract_violation
  /// for a tool not in tool_names().
  std::uint64_t push(job_spec job);
  void close();

 private:
  friend class mapping_service;
  struct item {
    job_spec job;
    std::uint64_t ticket = 0;
  };
  /// Blocking pop of the oldest item; empty = closed and drained.
  std::optional<item> pop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<item> queue_;
  std::uint64_t next_ticket_ = 1;
  bool closed_ = false;
};

/// One daemon-mode result, streamed to the serve() sink as soon as the
/// job finishes (sink calls are mutex-serialized, like observers).
struct served_outcome {
  std::uint64_t ticket = 0;
  job_spec job;
  job_outcome outcome;
  /// The outcome as one self-contained JSON object ({ticket, machine, tool,
  /// seed, state, store_hit, store_error, wall_seconds, result}) — the
  /// per-job streaming record a daemon writes to its result log.
  std::string json;
};

class mapping_service {
 public:
  explicit mapping_service(service_config config = {});

  /// Execute the batch; returns one outcome per job, by submission index.
  /// Throws contract_violation up front if any spec names a tool not in
  /// tool_names();
  /// exceptions inside a job mark that job failed without sinking the batch.
  /// With a store configured, dramdig jobs consult it first (see
  /// job_outcome::store_hit) and successful recoveries persist back to it
  /// in one save after the batch, skipped when no job updated the store
  /// (a failed save logs a warning and lands in the store_error of every
  /// job whose update it lost; it never fails the batch). Before
  /// returning, the heap the jobs freed goes back to the OS
  /// (util/heap.h), so the process's resident memory between batches does
  /// not depend on which threads ran jobs.
  [[nodiscard]] std::vector<job_outcome> run(
      const std::vector<job_spec>& jobs,
      progress_observer* observer = nullptr) const;

  /// Daemon mode: drain `feed` until it is closed and empty, dispatching
  /// jobs across the service's lanes as they arrive and streaming each
  /// result to `sink`. Store consultation and persistence happen per job
  /// against the live store (a daemon's whole point is that later jobs see
  /// earlier recoveries), so serve() trades run()'s batch determinism for
  /// incremental warm-starts — documented, not accidental. The producer
  /// owns close(). Returns jobs served, after releasing the freed heap like
  /// run().
  using result_sink = std::function<void(const served_outcome&)>;
  std::size_t serve(job_feed& feed, const result_sink& sink) const;

 private:
  struct dispatch_plan;
  void execute_job(const job_spec& job, const dispatch_plan& plan,
                   job_outcome& out,
                   std::optional<store::store_entry>& update,
                   const core::phase_callback& on_phase) const;
  /// The per-job body run() and serve() share: `on_start` fires, and the
  /// job runs under the wall clock — a null `plan` consults the live store
  /// inside the timed span (serve()) — and a throw marks the job failed
  /// and drops its store update.
  template <class OnStart>
  void run_job(const job_spec& job, const dispatch_plan* plan,
               job_outcome& out, std::optional<store::store_entry>& update,
               const core::phase_callback& on_phase, OnStart&& on_start) const;
  /// Put every engaged update into the store and save() it when at least
  /// one was put. Returns the failed save's error text (also logged as a
  /// warning), else empty. No-op without a store.
  std::string persist(
      std::span<std::optional<store::store_entry>> updates) const;

  service_config config_;
};

}  // namespace dramdig::api
