// Side-by-side lanes for the job engine.
//
// mapping_service runs its jobs in parallel: each lane is a long-lived loop
// draining a shared queue, and each job's simulator runs on whichever lane
// claimed it. That is the project's only level of parallelism, so all it
// needs is "start n loops, wait for all of them". Which lane runs which job
// is never observable — every job owns its environment and rng.
#pragma once

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/expect.h"

namespace dramdig {

/// Threads worth running on this host, clamped to [1, 16]: the cap on a
/// service's lanes.
[[nodiscard]] inline unsigned default_shard_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : (hw > 16 ? 16 : hw);
}

/// Run `lane()` n times side by side: on n-1 new threads plus the calling
/// thread, which runs the last one. Returns once every lane has finished;
/// then rethrows the first exception a lane threw, if any. With n == 1 the
/// lane runs on the caller and no thread starts. The caller picks n; it
/// is never raised or capped here.
template <typename Lane>
void run_lanes(unsigned n, Lane&& lane) {
  DRAMDIG_EXPECTS(n >= 1);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto guarded = [&] {
    try {
      lane();
    } catch (...) {
      std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  try {
    for (unsigned i = 0; i + 1 < n; ++i) threads.emplace_back(guarded);
  } catch (...) {
    // A thread failed to start: the lanes already running still join.
    for (std::thread& t : threads) t.join();
    throw;
  }
  guarded();
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dramdig
