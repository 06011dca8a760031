#include "sim/memory_controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::sim {
namespace {

// Contracts of the counter-rng measurement tail: a batch equals the scalar
// measure_pair sequence (each measurement's noise is keyed by its index),
// and the stream's statistics match the timing model's analytic ones.

struct tail_fixture {
  dram::machine_spec spec = dram::machine_by_number(1);
  virtual_clock clock;
  timing_model timing{};
  memory_controller mc;

  explicit tail_fixture(std::uint64_t seed = 1, timing_model t = {})
      : timing(t), mc(spec.mapping, t, clock, rng(seed)) {}
};

/// A deterministic batch of random cache-line-aligned pairs.
[[nodiscard]] std::vector<addr_pair> big_batch(std::uint64_t memory_bytes,
                                               std::size_t count) {
  rng addr(77);
  std::vector<addr_pair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(addr.below(memory_bytes) & ~63ull,
                       addr.below(memory_bytes) & ~63ull);
  }
  return pairs;
}

TEST(CounterTail, LargeBatchMatchesScalarSequence) {
  // The batch contract on a batch far larger than any one the pipeline
  // issues: measure_pairs equals the scalar measure_pair sequence, draw
  // for draw, and leaves the clock, counters and row buffers where the
  // sequence does.
  tail_fixture scalar(13), batched(13);

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
  EXPECT_EQ(batched.mc.access_count(), scalar.mc.access_count());
  EXPECT_EQ(batched.mc.measurement_count(), scalar.mc.measurement_count());
  // A follow-up measurement's first access is classified against the row
  // left open in address 0's bank, so diverged row buffers change its mean.
  EXPECT_DOUBLE_EQ(batched.mc.measure_pair(0, 1ull << 20, 1).mean_access_ns,
                   scalar.mc.measure_pair(0, 1ull << 20, 1).mean_access_ns);
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
