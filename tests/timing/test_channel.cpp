#include "timing/channel.h"

#include <gtest/gtest.h>

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
  EXPECT_THROW((void)f.ch.is_sbdr(0, 64), contract_violation);
}

TEST(Channel, ClassifiesGroundTruthRelationships) {
  channel_fixture f;
  (void)f.ch.calibrate(f.pool(512, 9));
  // Row-only bit flip on No.1 (bit 20): same bank, different row.
  EXPECT_TRUE(f.ch.is_sbdr(0, 1ull << 20));
  // Channel bit flip (bit 6): different bank.
  EXPECT_FALSE(f.ch.is_sbdr(0, 1ull << 6));
  // Column bit flip (bit 8): same row.
  EXPECT_FALSE(f.ch.is_sbdr(0, 1ull << 8));
}

TEST(Channel, FastAndStrictAgreeOnCleanMachine) {
  channel_fixture f;
  (void)f.ch.calibrate(f.pool(512, 10));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(f.ch.is_sbdr_fast(0, 1ull << 20),
              f.ch.is_sbdr_strict(0, 1ull << 20));
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
    strict_wrong += f.ch.is_sbdr_strict(0, 1ull << 6);
  }
  EXPECT_LE(strict_wrong, 4);
  // And no false negatives on real conflicts.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(f.ch.is_sbdr_strict(0, 1ull << 20));
  }
}

TEST(Channel, LatencyMedianFiltersOutliers) {
  sim::timing_model noisy{};
  noisy.contamination_chance = 0.25;
  noisy.burst_mean_interval_s = 1e9;
  channel_fixture f(4, noisy);
  (void)f.ch.calibrate(f.pool(1024, 12));
  int wrong = 0;
  for (int i = 0; i < 200; ++i) {
    if (f.ch.latency(0, 1ull << 6) > f.ch.threshold_ns()) ++wrong;
  }
  // Median-of-3 needs two contaminated samples to lie: ~3 * 0.2^2 ~ 12%.
  EXPECT_LT(wrong, 40);
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
  EXPECT_TRUE(f.ch.is_sbdr(0, 1ull << 20));
  EXPECT_FALSE(f.ch.is_sbdr(0, 1ull << 6));
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
    errors += !f.ch.is_sbdr_strict(0, 1ull << 20);
    errors += f.ch.is_sbdr_strict(0, 1ull << 8);
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
  EXPECT_TRUE(f.ch.is_sbdr(0, 1ull << 20));
  EXPECT_FALSE(f.ch.is_sbdr(0, 1ull << 6));
}

TEST(Channel, MeasurementCountScalesWithSamples) {
  channel_config cfg{};
  cfg.samples_per_latency = 5;
  channel_fixture f(6, {}, cfg);
  (void)f.ch.calibrate(f.pool(256, 14));
  const auto before = f.mc.measurement_count();
  (void)f.ch.latency(0, 64);
  EXPECT_EQ(f.mc.measurement_count() - before, 5u);
}

TEST(Channel, FastBatchMatchesScalarLoop) {
  channel_fixture a(21), b(21);
  (void)a.ch.calibrate(a.pool(512, 9));
  (void)b.ch.calibrate(b.pool(512, 9));
  const auto partners = a.pool(400, 33);
  std::vector<char> scalar;
  scalar.reserve(partners.size());
  for (std::uint64_t p : partners) {
    scalar.push_back(a.ch.is_sbdr_fast(0, p) ? 1 : 0);
  }
  const auto batch = b.ch.is_sbdr_fast_batch(0, partners);
  EXPECT_EQ(batch, scalar);
  EXPECT_EQ(a.clock.now_ns(), b.clock.now_ns());
}

TEST(Channel, StrictBatchMatchesScalarLoop) {
  channel_fixture a(22), b(22);
  (void)a.ch.calibrate(a.pool(512, 9));
  (void)b.ch.calibrate(b.pool(512, 9));
  std::vector<sim::addr_pair> pairs;
  for (unsigned i = 0; i < 64; ++i) {
    pairs.emplace_back(0, (std::uint64_t{i} << 14) & (a.spec.memory_bytes - 1));
  }
  std::vector<char> scalar;
  scalar.reserve(pairs.size());
  for (const auto& [p1, p2] : pairs) {
    scalar.push_back(a.ch.is_sbdr_strict(p1, p2) ? 1 : 0);
  }
  EXPECT_EQ(b.ch.is_sbdr_strict_batch(pairs), scalar);
  EXPECT_EQ(a.mc.measurement_count(), b.mc.measurement_count());
}

TEST(Channel, BatchRequiresCalibration) {
  channel_fixture f;
  const std::vector<std::uint64_t> partners{64};
  EXPECT_THROW((void)f.ch.is_sbdr_fast_batch(0, partners),
               contract_violation);
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
    errors += !f.ch.is_sbdr_strict(0, 1ull << 20);
    errors += f.ch.is_sbdr_strict(0, 1ull << 8);
  }
  EXPECT_LE(errors, 2);
}

}  // namespace
}  // namespace dramdig::timing
