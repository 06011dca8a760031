// Deterministic work sharding for batch-oriented hot paths.
//
// The batched measurement engine and the bench drivers fan independent work
// (address decodes, whole machine runs) across threads. Reproducibility is
// non-negotiable in this project — every table and test is seeded — so the
// split is computed from item indices alone: shard i always owns the same
// contiguous index range regardless of how many threads actually run, and
// callers merge results by shard index. Combined with one forked rng per
// shard, the output is bit-identical on 1 thread and on 16.
//
// Dispatch goes through a persistent worker_pool: threads are started once
// (lazily, on the first multi-shard call) and reused for every batch, so a
// hot loop issuing thousands of measure_pairs batches pays a queue handoff
// per batch instead of a thread spawn per shard — spawn cost is why the
// batched engine used to lose to the scalar loop below ~100k pairs. The
// submitting thread always participates in its own batch, which makes
// nested submissions (a pool worker running a mapping_service job whose
// measure_pairs fans out again) deadlock-free: a caller can never block on
// work that only itself could run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/expect.h"

namespace dramdig {

/// One contiguous slice of a [0, n) index range.
struct shard {
  std::size_t begin = 0;  ///< first index owned (inclusive)
  std::size_t end = 0;    ///< one past the last index owned
  unsigned index = 0;     ///< shard number, 0-based
};

/// Threads worth spawning on this host, clamped to [1, 16]. A value of 1
/// makes every parallel_for_shards call run inline.
[[nodiscard]] inline unsigned default_shard_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : (hw > 16 ? 16 : hw);
}

/// Split [0, n) into at most `shards` near-equal contiguous slices (never
/// more than n) — the deterministic partition both the runner and tests
/// rely on.
[[nodiscard]] inline std::vector<shard> make_shards(std::size_t n,
                                                    unsigned shards) {
  DRAMDIG_EXPECTS(shards >= 1);
  std::vector<shard> out;
  if (n == 0) return out;
  const std::size_t count =
      std::min<std::size_t>(shards, n);
  const std::size_t base = n / count;
  const std::size_t extra = n % count;  // first `extra` shards get one more
  std::size_t at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    out.push_back({at, at + len, static_cast<unsigned>(i)});
    at += len;
  }
  return out;
}

/// A persistent pool of worker threads servicing index-based task batches.
///
/// run(count, fn) executes fn(0..count-1) with the pool's workers *and* the
/// calling thread claiming indices from a shared atomic counter. Which
/// thread runs which index is scheduling — never observable, because every
/// caller follows the shard discipline above (task i writes only slot i).
/// Exceptions are captured per task and rethrown on the caller in index
/// order after the batch drains, matching the old thread-per-shard
/// semantics. Submissions from several threads queue FIFO; a submission
/// from inside a worker (nested batch) is legal and cannot deadlock, since
/// the submitter itself drains any index no idle worker picks up.
class worker_pool {
 public:
  explicit worker_pool(unsigned threads = default_shard_count()) {
    DRAMDIG_EXPECTS(threads >= 1);
    // threads-1 workers: the caller of run() is always the remaining lane.
    threads_.reserve(threads - 1);
    for (unsigned i = 0; i + 1 < threads; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  ~worker_pool() {
    {
      std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// The process-wide pool every parallel_for_shards call dispatches to,
  /// started on first use and reused for the life of the process.
  static worker_pool& global() {
    static worker_pool pool;
    return pool;
  }

  /// Worker threads plus the caller lane.
  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Run fn(i) for every i in [0, count). Blocks until all tasks finished;
  /// rethrows the lowest-index captured exception, if any.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (count == 1 || threads_.empty()) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    batch b;
    b.fn = &fn;
    b.count = count;
    b.errors.assign(count, nullptr);
    {
      std::scoped_lock lock(mutex_);
      queue_.push_back(&b);
    }
    work_cv_.notify_all();
    // The caller lane: claim indices from its own batch until exhausted.
    while (true) {
      const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= b.count) break;
      run_task(b, i);
    }
    {
      std::unique_lock lock(mutex_);
      done_cv_.wait(lock, [&] { return b.done.load() >= b.count; });
      // The batch may still sit (exhausted) at the queue front; remove it
      // before its stack frame dies.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == &b) {
          queue_.erase(it);
          break;
        }
      }
    }
    for (const std::exception_ptr& e : b.errors) {
      if (e) std::rethrow_exception(e);
    }
  }

 private:
  struct batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::vector<std::exception_ptr> errors;
  };

  void run_task(batch& b, std::size_t i) {
    try {
      (*b.fn)(i);
    } catch (...) {
      b.errors[i] = std::current_exception();
    }
    // Read count before the increment: once the last one lands, the
    // submitter may return and reuse b's stack slot for its next batch.
    const std::size_t count = b.count;
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      // Empty critical section: the waiter checks the predicate under the
      // mutex, so acquiring it here closes the missed-wakeup window.
      { std::scoped_lock lock(mutex_); }
      done_cv_.notify_all();
    }
  }

  void worker_loop() {
    while (true) {
      batch* b = nullptr;
      std::size_t i = 0;
      {
        std::unique_lock lock(mutex_);
        work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        b = queue_.front();
        i = b->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= b->count) {
          // Exhausted batch: retire it from the queue (its submitter may
          // still be executing claimed tasks) and look again.
          queue_.pop_front();
          continue;
        }
      }
      run_task(*b, i);
    }
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stop
  std::condition_variable done_cv_;  ///< submitters: batch fully drained
  std::deque<batch*> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

/// Run `fn` once per shard of [0, n), on `pool` when more than one shard
/// exists. `fn` must confine writes to shard-private state (slots of a
/// pre-sized output vector indexed by item or shard index are the intended
/// pattern). Exceptions thrown by `fn` are rethrown on the caller thread
/// after the batch drains, lowest shard index first. The shard *split* is a
/// function of (n, shards) alone — which pool services it is never
/// observable, so benches may inject oversized pools to measure scaling
/// without touching results.
inline void parallel_for_shards(worker_pool& pool, std::size_t n,
                                unsigned shards,
                                const std::function<void(const shard&)>& fn) {
  const std::vector<shard> plan = make_shards(n, shards);
  if (plan.empty()) return;
  if (plan.size() == 1) {
    fn(plan.front());
    return;
  }
  pool.run(plan.size(), [&](std::size_t i) { fn(plan[i]); });
}

/// Convenience overload dispatching to the process-wide pool.
inline void parallel_for_shards(std::size_t n, unsigned shards,
                                const std::function<void(const shard&)>& fn) {
  parallel_for_shards(worker_pool::global(), n, shards, fn);
}

}  // namespace dramdig
