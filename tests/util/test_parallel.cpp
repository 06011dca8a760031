#include "util/parallel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>


namespace dramdig {
namespace {

TEST(ParallelShards, PlanCoversRangeExactlyOnce) {
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (unsigned shards : {1u, 2u, 3u, 8u, 16u}) {
      const auto plan = make_shards(n, shards);
      std::vector<int> hits(n, 0);
      for (const shard& s : plan) {
        EXPECT_LE(s.begin, s.end);
        for (std::size_t i = s.begin; i < s.end; ++i) ++hits[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i], 1) << "n=" << n << " shards=" << shards;
      }
      EXPECT_LE(plan.size(), std::max<std::size_t>(n, 1));
    }
  }
}

TEST(ParallelShards, NeverMoreShardsThanItems) {
  EXPECT_EQ(make_shards(3, 16).size(), 3u);
  EXPECT_TRUE(make_shards(0, 4).empty());
}

TEST(ParallelShards, ResultsIndependentOfShardCount) {
  // The canonical usage: each item writes its own slot. Any shard count
  // must produce the identical output vector.
  const std::size_t n = 503;
  auto run = [n](unsigned shards) {
    std::vector<std::uint64_t> out(n, 0);
    parallel_for_shards(n, shards, [&](const shard& s) {
      for (std::size_t i = s.begin; i < s.end; ++i) {
        out[i] = i * 2654435761u + s.index * 0;  // value depends on i only
      }
    });
    return out;
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(5));
  EXPECT_EQ(one, run(16));
}

TEST(ParallelShards, AllItemsProcessedConcurrently) {
  const std::size_t n = 10000;
  std::atomic<std::uint64_t> sum{0};
  parallel_for_shards(n, 4, [&](const shard& s) {
    std::uint64_t local = 0;
    for (std::size_t i = s.begin; i < s.end; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ParallelShards, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      parallel_for_shards(8, 4,
                          [](const shard& s) {
                            if (s.index == 2) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

TEST(ParallelShards, DefaultShardCountSane) {
  const unsigned n = default_shard_count();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
}

TEST(WorkerPool, ReusedAcrossManyBatches) {
  // The whole point of the pool: thousands of small batches on the same
  // threads. Every index of every batch must run exactly once.
  worker_pool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int> hits{0};
    pool.run(8, [&](std::size_t) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), 8);
  }
}

TEST(WorkerPool, NestedSubmissionDoesNotDeadlock) {
  // A pool worker that submits its own batch (mapping_service job fanning
  // out into measure_pairs) must not block on work only it could run: the
  // submitter always participates in its own batch.
  worker_pool pool(4);
  std::atomic<int> inner_hits{0};
  pool.run(4, [&](std::size_t) {
    pool.run(4, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 16);
}

TEST(WorkerPool, ExceptionPropagatesAndPoolStaysUsable) {
  worker_pool pool(4);
  EXPECT_THROW(pool.run(16,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("task 5");
                        }),
               std::runtime_error);
  // A throwing batch must not poison the pool.
  std::atomic<int> hits{0};
  pool.run(16, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 16);
}

TEST(WorkerPool, LowestIndexExceptionWins) {
  // Matches the old thread-per-shard semantics: the first shard's error is
  // the one rethrown when several tasks fail.
  worker_pool pool(4);
  try {
    pool.run(8, [](std::size_t i) {
      if (i == 2 || i == 6) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
}

TEST(WorkerPool, ConcurrentExternalSubmitters) {
  // Several threads submitting batches to one pool at once (the
  // mapping_service worker pattern): every batch completes with its own
  // results intact.
  worker_pool pool(4);
  std::vector<std::thread> submitters;
  std::array<std::atomic<int>, 6> sums{};
  for (int t = 0; t < 6; ++t) {
    submitters.emplace_back([&pool, &sums, t] {
      for (int round = 0; round < 100; ++round) {
        pool.run(10, [&sums, t](std::size_t i) {
          sums[t].fetch_add(static_cast<int>(i) + 1);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (const auto& s : sums) EXPECT_EQ(s.load(), 100 * 55);
}

TEST(WorkerPool, SingleThreadPoolRunsInline) {
  worker_pool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id self = std::this_thread::get_id();
  pool.run(4, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), self); });
}

}  // namespace
}  // namespace dramdig
