#include "sim/memory_controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dramdig::sim {
namespace {

// Contracts of the counter-rng measurement tail: the shard-parallel noise
// pass is bit-identical on any thread count (the whole point of counter
// addressing), a batch equals the scalar measure_pair sequence, and the
// stream's statistics match the timing model's analytic ones.

struct tail_fixture {
  dram::machine_spec spec = dram::machine_by_number(1);
  virtual_clock clock;
  timing_model timing{};
  memory_controller mc;

  explicit tail_fixture(std::uint64_t seed = 1, timing_model t = {})
      : timing(t), mc(spec.mapping, t, clock, rng(seed)) {}
};

/// A deterministic batch large enough to cross the controller's parallel
/// threshold, so the sharded tail actually engages.
[[nodiscard]] std::vector<addr_pair> big_batch(std::uint64_t memory_bytes,
                                               std::size_t count = 6000) {
  rng addr(77);
  std::vector<addr_pair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(addr.below(memory_bytes) & ~63ull,
                       addr.below(memory_bytes) & ~63ull);
  }
  return pairs;
}

TEST(CounterTail, BitIdenticalAcrossThreadCounts) {
  // Identical controllers, worker pools of 1, 4 and 8 threads injected.
  // Every observable — measurements, virtual clock, counters, row-buffer
  // state — must agree exactly; the pool only changes who computes what.
  tail_fixture one(9), four(9), eight(9);
  worker_pool p1(1), p4(4), p8(8);
  one.mc.set_worker_pool(&p1);
  four.mc.set_worker_pool(&p4);
  eight.mc.set_worker_pool(&p8);

  const auto pairs = big_batch(one.spec.memory_bytes);
  const auto r1 = one.mc.measure_pairs(pairs, 300);
  const auto r4 = four.mc.measure_pairs(pairs, 300);
  const auto r8 = eight.mc.measure_pairs(pairs, 300);

  ASSERT_EQ(r1.size(), pairs.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r4[i].mean_access_ns, r1[i].mean_access_ns) << i;
    EXPECT_DOUBLE_EQ(r8[i].mean_access_ns, r1[i].mean_access_ns) << i;
    EXPECT_EQ(r4[i].contaminated, r1[i].contaminated) << i;
    EXPECT_EQ(r8[i].contaminated, r1[i].contaminated) << i;
  }
  EXPECT_EQ(four.clock.now_ns(), one.clock.now_ns());
  EXPECT_EQ(eight.clock.now_ns(), one.clock.now_ns());
  EXPECT_EQ(four.mc.access_count(), one.mc.access_count());
  EXPECT_EQ(eight.mc.access_count(), one.mc.access_count());
  EXPECT_EQ(four.mc.measurement_count(), one.mc.measurement_count());
  // Row-buffer tables converged identically: a follow-up measurement's
  // first access is classified against the row left open in address 0's
  // bank, so a diverged table changes its mean. One measurement each.
  const auto next = one.mc.measure_pair(0, 1ull << 20, 1);
  EXPECT_DOUBLE_EQ(four.mc.measure_pair(0, 1ull << 20, 1).mean_access_ns,
                   next.mean_access_ns);
  EXPECT_DOUBLE_EQ(eight.mc.measure_pair(0, 1ull << 20, 1).mean_access_ns,
                   next.mean_access_ns);
}

TEST(CounterTail, InjectedPoolBatchStillMatchesScalarSequence) {
  // Thread identity composed with the batch contract: an 8-thread batch
  // equals the scalar measure_pair sequence, draw for draw.
  tail_fixture scalar(13), batched(13);
  worker_pool p8(8);
  batched.mc.set_worker_pool(&p8);

  const auto pairs = big_batch(scalar.spec.memory_bytes, 5000);
  std::vector<pair_measurement> expected;
  expected.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    expected.push_back(scalar.mc.measure_pair(a, b, 200));
  }
  const auto got = batched.mc.measure_pairs(pairs, 200);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].mean_access_ns, expected[i].mean_access_ns) << i;
    EXPECT_EQ(got[i].contaminated, expected[i].contaminated) << i;
  }
  EXPECT_EQ(batched.clock.now_ns(), scalar.clock.now_ns());
}

TEST(CounterTail, CounterStreamMatchesAnalyticMean) {
  // Over many measurements of one SBDR pair the clean sample mean must sit
  // on the ideal conflict latency within three standard errors (sigma /
  // sqrt(2 * rounds) per measurement, averaged over the clean ones), and
  // the contamination rate must track the configured chance within three
  // binomial standard errors.
  timing_model t{};
  t.burst_mean_interval_s = 1e9;  // no bursts: rate is exactly chance
  tail_fixture f(21, t);
  constexpr int kMeas = 2000;
  constexpr unsigned kRounds = 100;
  const addr_pair sbdr{0, 1ull << 20};  // bit 20 is row-only on No.1

  // The first measurement opens the bank (one closed access); every later
  // one finds the pair's other row open and conflicts on every access.
  (void)f.mc.measure_pair(sbdr.first, sbdr.second, kRounds);
  double sum = 0.0;
  int contaminated = 0;
  for (int i = 0; i < kMeas; ++i) {
    const auto m = f.mc.measure_pair(sbdr.first, sbdr.second, kRounds);
    if (m.contaminated) {
      ++contaminated;
    } else {
      sum += m.mean_access_ns;
    }
  }
  const int clean = kMeas - contaminated;
  const double mean = sum / clean;
  const double standard_error =
      t.access_noise_sigma_ns / std::sqrt(2.0 * kRounds * clean);
  EXPECT_NEAR(mean, t.row_conflict_ns, 3 * standard_error);
  const double p = t.contamination_chance;
  EXPECT_NEAR(contaminated / double(kMeas), p,
              3 * std::sqrt(p * (1 - p) / kMeas));
}

}  // namespace
}  // namespace dramdig::sim
