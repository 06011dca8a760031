#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

namespace dramdig {
namespace {

TEST(RunLanes, EveryLaneRunsExactlyOnce) {
  for (unsigned n : {1u, 2u, 3u, 8u}) {
    std::atomic<unsigned> runs{0};
    run_lanes(n, [&] { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), n) << "n=" << n;
  }
}

TEST(RunLanes, LanesMeetAtOneBarrier) {
  // Every lane waits until all n have arrived: this returns only if the n
  // lanes run at the same time, each on its own thread.
  constexpr unsigned kLanes = 4;
  std::barrier meet(kLanes);
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  run_lanes(kLanes, [&] {
    {
      std::scoped_lock lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    }
    meet.arrive_and_wait();
  });
  EXPECT_EQ(ids.size(), kLanes);
  EXPECT_TRUE(ids.contains(std::this_thread::get_id()));
}

TEST(RunLanes, SingleLaneRunsOnCaller) {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id ran_on;
  run_lanes(1, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, self);
}

TEST(RunLanes, ThrowingLaneRethrownAfterAllLanesJoin) {
  // One lane throws at once; the others finish their work afterwards. The
  // exception surfaces only after every lane is done.
  constexpr unsigned kLanes = 4;
  std::atomic<unsigned> claimed{0};
  std::atomic<unsigned> finished{0};
  try {
    run_lanes(kLanes, [&] {
      if (claimed.fetch_add(1) == 0) throw std::runtime_error("lane failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane failed");
    EXPECT_EQ(finished.load(), kLanes - 1);
  }
}

TEST(ParallelShards, DefaultShardCountSane) {
  const unsigned n = default_shard_count();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
}

}  // namespace
}  // namespace dramdig
