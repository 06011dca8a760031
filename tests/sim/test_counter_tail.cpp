#include "sim/memory_controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::sim {
namespace {

// Contracts of the counter-rng measurement tail: how a sequence of pairs is
// cut into batches never changes what is measured (each measurement's noise
// is keyed by its index, its contamination rate by its own clock prefix),
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

/// Measures one 5000-pair sequence as one batch and, on an equal-seed
/// controller, as consecutive sub-batches of the lengths `next_len` draws.
/// Both must agree bit for bit: outputs, contamination flags, clock,
/// counters and the row buffers a follow-up measurement reads. Bursts
/// switch on and off many times across the sequence's virtual time, so
/// each measurement's contamination rate depends on the clock at its own
/// start, not at its batch's.
template <class NextLen>
void expect_split_matches_whole(NextLen next_len) {
  timing_model bursty{};
  bursty.contamination_chance = 0.02;
  bursty.burst_mean_interval_s = 0.02;
  bursty.burst_mean_duration_s = 0.02;
  bursty.burst_contamination_factor = 20.0;
  constexpr unsigned kRounds = 200;
  tail_fixture whole(13, bursty), split(13, bursty);

  const auto pairs = big_batch(whole.spec.memory_bytes, 5000);
  const std::span<const addr_pair> all(pairs);
  const auto want = whole.mc.measure_pairs(all, kRounds);

  std::vector<pair_measurement> got, part;
  for (std::size_t at = 0; at < all.size();) {
    const std::size_t len = std::min<std::size_t>(next_len(), all.size() - at);
    split.mc.measure_pairs(all.subspan(at, len), kRounds, part);
    got.insert(got.end(), part.begin(), part.end());
    at += len;
  }

  // The model really contaminates, in and out of bursts: 2% of 5000 is
  // about 100 contaminated readings, 40% about 2000.
  std::size_t contaminated = 0;
  for (const auto& m : want) contaminated += m.contaminated;
  EXPECT_GT(contaminated, 300u);
  EXPECT_LT(contaminated, 1700u);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].mean_access_ns, want[i].mean_access_ns) << i;
    ASSERT_EQ(got[i].contaminated, want[i].contaminated) << i;
  }
  EXPECT_EQ(split.clock.now_ns(), whole.clock.now_ns());
  EXPECT_EQ(split.mc.access_count(), whole.mc.access_count());
  EXPECT_EQ(split.mc.measurement_count(), whole.mc.measurement_count());
  // A follow-up measurement's first access is classified against the row
  // left open in address 0's bank, so diverged row buffers change its mean.
  const addr_pair probe{0, 1ull << 20};
  EXPECT_EQ(split.mc.measure_pairs({&probe, 1}, 1)[0].mean_access_ns,
            whole.mc.measure_pairs({&probe, 1}, 1)[0].mean_access_ns);
  EXPECT_EQ(split.clock.now_ns(), whole.clock.now_ns());
}

TEST(CounterTail, LargeBatchMatchesScalarSequence) {
  // A batch far larger than any one the pipeline issues equals the same
  // pairs measured one at a time, as 5000 one-element batches.
  expect_split_matches_whole([] { return std::size_t{1}; });
}

TEST(CounterTail, AnySplitOfABatchMatchesTheWholeBatch) {
  // Random consecutive sub-batches of 1 to 400 pairs.
  rng cut(5);
  expect_split_matches_whole([&cut] { return 1 + cut.below(400); });
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
  const std::vector<addr_pair> pairs(kMeas + 1, sbdr);
  const auto all = f.mc.measure_pairs(pairs, kRounds);
  double sum = 0.0;
  int contaminated = 0;
  for (int i = 1; i <= kMeas; ++i) {
    const auto& m = all[i];
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
