#include "timing/channel.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::timing {
namespace {

struct channel_fixture {
  dram::machine_spec spec = dram::machine_by_number(1);
  sim::virtual_clock clock;
  sim::timing_model timing{};
  sim::memory_controller mc;
  channel ch;

  explicit channel_fixture(std::uint64_t seed = 1,
                           sim::timing_model t = {},
                           channel_config cfg = {})
      : timing(t), mc(spec.mapping, t, clock, rng(seed)),
        ch(mc, cfg, rng(seed ^ 0xc)) {}

  /// Random pool spanning banks and rows.
  [[nodiscard]] std::vector<std::uint64_t> pool(std::size_t n,
                                                std::uint64_t seed) const {
    rng r(seed);
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(r.below(spec.memory_bytes) & ~std::uint64_t{63});
    }
    return out;
  }
};

/// One strict verdict through the strict batch, no folded sample.
bool strict(channel& ch, std::uint64_t p1, std::uint64_t p2) {
  const sim::addr_pair pair{p1, p2};
  std::vector<char> out;
  ch.is_sbdr_strict_batch({&pair, 1}, {}, out);
  return out.front() != 0;
}

/// One single-sample verdict: measure_batch plus the threshold compare.
bool fast(channel& ch, std::uint64_t p1, std::uint64_t p2) {
  const sim::addr_pair pair{p1, p2};
  std::vector<double> latency;
  ch.measure_batch({&pair, 1}, latency);
  return latency.front() > ch.threshold_ns();
}

TEST(Channel, CalibrationLandsBetweenModes) {
  channel_fixture f;
  const double t = f.ch.calibrate(f.pool(512, 9));
  EXPECT_GT(t, f.timing.row_hit_ns);
  EXPECT_LT(t, f.timing.row_conflict_ns);
  EXPECT_TRUE(f.ch.calibrated());
}

TEST(Channel, UncalibratedChannelRefusesToClassify) {
  channel_fixture f;
  EXPECT_FALSE(f.ch.calibrated());
  EXPECT_THROW((void)strict(f.ch, 0, 64), contract_violation);
}

TEST(Channel, ClassifiesGroundTruthRelationships) {
  channel_fixture f;
  (void)f.ch.calibrate(f.pool(512, 9));
  // Row-only bit flip on No.1 (bit 20): same bank, different row.
  EXPECT_TRUE(strict(f.ch, 0, 1ull << 20));
  // Channel bit flip (bit 6): different bank.
  EXPECT_FALSE(strict(f.ch, 0, 1ull << 6));
  // Column bit flip (bit 8): same row.
  EXPECT_FALSE(strict(f.ch, 0, 1ull << 8));
}

TEST(Channel, FastAndStrictAgreeOnCleanMachine) {
  channel_fixture f;
  (void)f.ch.calibrate(f.pool(512, 10));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fast(f.ch, 0, 1ull << 20), strict(f.ch, 0, 1ull << 20));
  }
}

TEST(Channel, StrictRejectsContaminationFalsePositives) {
  // Crank contamination so single samples frequently lie; the min-filter
  // must still classify a non-conflicting pair as fast.
  sim::timing_model noisy{};
  noisy.contamination_chance = 0.4;
  noisy.burst_mean_interval_s = 1e9;
  channel_fixture f(3, noisy);
  (void)f.ch.calibrate(f.pool(1024, 11));
  int strict_wrong = 0;
  for (int i = 0; i < 200; ++i) {
    strict_wrong += strict(f.ch, 0, 1ull << 6);
  }
  EXPECT_LE(strict_wrong, 4);
  // And no false negatives on real conflicts.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(strict(f.ch, 0, 1ull << 20));
  }
}

TEST(Channel, CalibrationSamplesExposed) {
  channel_config cfg{};
  cfg.calibration_pairs = 300;
  channel_fixture f(5, {}, cfg);
  (void)f.ch.calibrate(f.pool(256, 13));
  EXPECT_EQ(f.ch.calibration_samples().size(), 300u);
}

TEST(Channel, AdaptiveCalibratorStopsEarlyWithSaneThreshold) {
  // The adaptive schedule must spend well under its budget on a clean
  // machine — the valley stabilizes after a few hundred pairs — and
  // still land the threshold between the latency modes.
  channel_fixture f(8);
  const double t = f.ch.calibrate(f.pool(512, 9));
  EXPECT_GT(t, f.timing.row_hit_ns);
  EXPECT_LT(t, f.timing.row_conflict_ns);
  EXPECT_GE(f.ch.calibration_pairs_used(), 300u);
  EXPECT_LT(f.ch.calibration_pairs_used(), 1200u);
  // The channel still classifies ground truth correctly.
  EXPECT_TRUE(strict(f.ch, 0, 1ull << 20));
  EXPECT_FALSE(strict(f.ch, 0, 1ull << 6));
}

TEST(Channel, CalibrationPriorStopsEarlyOnlyWhenConfirmed) {
  // The fleet warm-start prior: a sibling threshold equal to this
  // machine's own valley authorizes an earlier stop, while a wrong one
  // (3x) never matches the local estimates and must leave the normal
  // schedule untouched — same threshold, same pairs.
  const auto calibrate = [](double prior_ns) {
    channel_fixture f(8);
    const double t = f.ch.calibrate(f.pool(512, 9), prior_ns);
    return std::pair{t, f.ch.calibration_pairs_used()};
  };
  const auto [cold_t, cold_pairs] = calibrate(0.0);
  const auto [warm_t, warm_pairs] = calibrate(cold_t);
  EXPECT_LT(warm_pairs, cold_pairs);
  EXPECT_NEAR(warm_t, cold_t, 0.1 * cold_t);
  const auto [wrong_t, wrong_pairs] = calibrate(3 * cold_t);
  EXPECT_EQ(wrong_t, cold_t);
  EXPECT_EQ(wrong_pairs, cold_pairs);
}

TEST(Channel, AdaptiveCalibratorSurvivesNoisyProfile) {
  // Contamination widens the histogram; the stability window must not
  // latch a premature threshold that misclassifies ground truth.
  sim::timing_model noisy{};
  noisy.contamination_chance = 0.04;
  noisy.contamination_max_ns = 500.0;
  channel_fixture f(9, noisy);
  (void)f.ch.calibrate(f.pool(1024, 15));
  int errors = 0;
  for (int i = 0; i < 100; ++i) {
    errors += !strict(f.ch, 0, 1ull << 20);
    errors += strict(f.ch, 0, 1ull << 8);
  }
  EXPECT_LE(errors, 2);
}

TEST(Channel, InjectedThresholdCalibratesTheChannel) {
  // Baselines calibrate their own way and inject the result; the channel
  // must accept it and classify with it.
  channel_fixture f(10);
  EXPECT_FALSE(f.ch.calibrated());
  EXPECT_THROW(f.ch.set_threshold(0.0), contract_violation);
  f.ch.set_threshold((f.timing.row_hit_ns + f.timing.row_conflict_ns) / 2);
  ASSERT_TRUE(f.ch.calibrated());
  EXPECT_TRUE(strict(f.ch, 0, 1ull << 20));
  EXPECT_FALSE(strict(f.ch, 0, 1ull << 6));
}

TEST(Channel, BatchRequiresCalibration) {
  channel_fixture f;
  const std::vector<sim::addr_pair> pairs{{0, 64}};
  const std::vector<double> prior{100.0};
  std::vector<char> out;
  EXPECT_THROW(f.ch.is_sbdr_strict_batch(pairs, prior, out),
               contract_violation);
}

TEST(Channel, StrictBatchFoldsPriorSamples) {
  // A non-NaN prior stands in for one of the pair's strict samples and
  // enters the min filter; a NaN prior or an empty prior span folds none.
  channel_fixture f(23);
  (void)f.ch.calibrate(f.pool(512, 9));
  const std::vector<sim::addr_pair> pairs{
      {0, 1ull << 20}, {0, 1ull << 20}, {0, 1ull << 20}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> prior{nan, 1.0, 1e6};
  std::vector<char> out;
  auto before = f.mc.measurement_count();
  f.ch.is_sbdr_strict_batch(pairs, prior, out);
  EXPECT_EQ(f.mc.measurement_count() - before,
            3 * channel::strict_samples() - 2);
  // A fast folded sample refutes a real conflict; a slow one changes
  // nothing.
  EXPECT_EQ(out, (std::vector<char>{1, 0, 1}));
  before = f.mc.measurement_count();
  f.ch.is_sbdr_strict_batch(pairs, {}, out);
  EXPECT_EQ(f.mc.measurement_count() - before, 3 * channel::strict_samples());
  EXPECT_EQ(out, (std::vector<char>{1, 1, 1}));
}

TEST(Channel, CalibrationRejectsPoolWithoutTwoDistinctAddresses) {
  // Every calibration pair redraws until its two addresses differ; a pool
  // with no two distinct addresses must fail the contract, not spin.
  channel_fixture f;
  EXPECT_THROW((void)f.ch.calibrate({64, 64}), contract_violation);
  // Collisions on a pool that has two distinct addresses just redraw.
  rng r(1);
  const std::vector<std::uint64_t> two_distinct{64, 64, 128};
  const auto [a, b] = draw_distinct_pair(two_distinct, r);
  EXPECT_NE(a, b);
}

TEST(Channel, WorksOnNoisyMachineProfile) {
  // End-to-end sanity on the No.7-class noise profile: strict classifier
  // still separates the modes.
  channel_fixture f(7, [] {
    sim::timing_model t{};
    t.contamination_chance = 0.04;
    t.contamination_max_ns = 500.0;
    return t;
  }());
  (void)f.ch.calibrate(f.pool(1024, 15));
  int errors = 0;
  for (int i = 0; i < 100; ++i) {
    errors += !strict(f.ch, 0, 1ull << 20);
    errors += strict(f.ch, 0, 1ull << 8);
  }
  EXPECT_LE(errors, 2);
}

}  // namespace
}  // namespace dramdig::timing
