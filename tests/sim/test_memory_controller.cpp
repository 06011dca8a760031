#include "sim/memory_controller.h"

#include <gtest/gtest.h>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::sim {
namespace {

struct controller_fixture {
  dram::machine_spec spec = dram::machine_by_number(1);
  virtual_clock clock;
  timing_model timing{};
  memory_controller mc;

  explicit controller_fixture(std::uint64_t seed = 1, timing_model t = {})
      : timing(t), mc(spec.mapping, t, clock, rng(seed)) {}

  /// Two addresses in the same bank, different rows.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> sbdr_pair() const {
    const std::uint64_t p = 0;
    // Flipping a pure row bit keeps the bank: bit 20 is row-only on No.1.
    return {p, p | (1ull << 20)};
  }
  /// Two addresses in different banks.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> cross_bank_pair()
      const {
    // Bit 6 is the channel function on No.1.
    return {0, 1ull << 6};
  }
  /// Same bank, same row, different column.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> same_row_pair() const {
    return {0, 1ull << 8};
  }
};

TEST(MemoryController, IdealLatencyClassifiesRelationships) {
  controller_fixture f;
  const auto [a1, a2] = f.sbdr_pair();
  EXPECT_DOUBLE_EQ(f.mc.ideal_pair_latency_ns(a1, a2),
                   f.timing.row_conflict_ns);
  const auto [b1, b2] = f.cross_bank_pair();
  EXPECT_DOUBLE_EQ(f.mc.ideal_pair_latency_ns(b1, b2), f.timing.row_hit_ns);
  const auto [c1, c2] = f.same_row_pair();
  EXPECT_DOUBLE_EQ(f.mc.ideal_pair_latency_ns(c1, c2), f.timing.row_hit_ns);
}

TEST(MemoryController, MeasurePairTracksIdealWithinNoise) {
  controller_fixture f;
  const auto [a1, a2] = f.sbdr_pair();
  for (int i = 0; i < 20; ++i) {
    const auto m = f.mc.measure_pair(a1, a2, 1000);
    if (!m.contaminated) {
      EXPECT_NEAR(m.mean_access_ns, f.timing.row_conflict_ns, 2.0);
    }
  }
}

TEST(MemoryController, MeasurementSeparationIsClean) {
  // The SBDR gap must be much larger than the sampling noise — this is
  // the whole premise of the timing channel.
  controller_fixture f;
  const auto [a1, a2] = f.sbdr_pair();
  const auto [b1, b2] = f.cross_bank_pair();
  for (int i = 0; i < 50; ++i) {
    const double slow = f.mc.measure_pair(a1, a2, 1000).mean_access_ns;
    const double fast = f.mc.measure_pair(b1, b2, 1000).mean_access_ns;
    EXPECT_GT(slow, fast);
  }
}

TEST(MemoryController, ClockAdvancesWithWork) {
  controller_fixture f;
  const std::uint64_t before = f.clock.now_ns();
  (void)f.mc.measure_pair(0, 1ull << 20, 500);
  const std::uint64_t after = f.clock.now_ns();
  // 1000 accesses x ~(330 + 55 + 15) ns.
  EXPECT_GT(after - before, 300'000u);
  EXPECT_LT(after - before, 600'000u);
}

TEST(MemoryController, CountsAccessesAndMeasurements) {
  controller_fixture f;
  (void)f.mc.measure_pair(0, 64, 250);
  (void)f.mc.measure_pair(0, 64, 1);
  EXPECT_EQ(f.mc.measurement_count(), 2u);
  EXPECT_EQ(f.mc.access_count(), 502u);
}

TEST(MemoryController, RejectsOutOfRangeAddresses) {
  controller_fixture f;
  EXPECT_THROW((void)f.mc.measure_pair(f.spec.memory_bytes, 0, 10),
               contract_violation);
  EXPECT_THROW((void)f.mc.measure_pair(0, f.spec.memory_bytes, 10),
               contract_violation);
  EXPECT_EQ(f.mc.measurement_count(), 0u);
}

TEST(MemoryController, ContaminationIsOneSided) {
  timing_model noisy{};
  noisy.contamination_chance = 0.5;
  controller_fixture f(3, noisy);
  const auto [b1, b2] = f.cross_bank_pair();
  for (int i = 0; i < 200; ++i) {
    const auto m = f.mc.measure_pair(b1, b2, 1000);
    // Contamination only ever inflates the reading.
    EXPECT_GT(m.mean_access_ns, f.timing.row_hit_ns - 5.0);
  }
}

TEST(MemoryController, ContaminationFrequencyMatchesConfig) {
  timing_model noisy{};
  noisy.contamination_chance = 0.25;
  noisy.burst_mean_interval_s = 1e9;  // no bursts
  controller_fixture f(4, noisy);
  int contaminated = 0;
  for (int i = 0; i < 2000; ++i) {
    contaminated += f.mc.measure_pair(0, 64, 10).contaminated;
  }
  EXPECT_NEAR(contaminated / 2000.0, 0.25, 0.05);
}

TEST(MemoryController, BurstsElevateContamination) {
  timing_model bursty{};
  bursty.contamination_chance = 0.01;
  bursty.burst_mean_interval_s = 0.001;  // essentially always bursting
  bursty.burst_mean_duration_s = 1000.0;
  bursty.burst_contamination_factor = 50.0;
  controller_fixture f(5, bursty);
  int contaminated = 0;
  for (int i = 0; i < 500; ++i) {
    contaminated += f.mc.measure_pair(0, 64, 10).contaminated;
  }
  // 0.01 * 50 = 0.5 while bursting.
  EXPECT_GT(contaminated, 150);
}

TEST(MemoryController, BatchMatchesScalarSequence) {
  // The batched engine's core contract: measure_pairs is bit-identical to
  // the equivalent sequence of scalar measure_pair calls — same noise
  // draws, same clock, same counters, same row-buffer state.
  controller_fixture scalar(11), batched(11);
  rng addr(77);
  std::vector<addr_pair> pairs;
  for (int i = 0; i < 5000; ++i) {
    pairs.emplace_back(addr.below(scalar.spec.memory_bytes) & ~63ull,
                       addr.below(scalar.spec.memory_bytes) & ~63ull);
  }
  std::vector<pair_measurement> expected;
  expected.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    expected.push_back(scalar.mc.measure_pair(a, b, 300));
  }
  const auto got = batched.mc.measure_pairs(pairs, 300);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].mean_access_ns, expected[i].mean_access_ns) << i;
    EXPECT_EQ(got[i].contaminated, expected[i].contaminated) << i;
  }
  EXPECT_EQ(batched.clock.now_ns(), scalar.clock.now_ns());
  EXPECT_EQ(batched.mc.access_count(), scalar.mc.access_count());
  EXPECT_EQ(batched.mc.measurement_count(), scalar.mc.measurement_count());
  // Row-buffer state converged identically: a follow-up measurement's
  // first access is classified against the row the batch left open in
  // address 0's bank, so a diverged table changes its mean.
  const auto next_batched = batched.mc.measure_pair(0, 1ull << 20, 1);
  const auto next_scalar = scalar.mc.measure_pair(0, 1ull << 20, 1);
  EXPECT_DOUBLE_EQ(next_batched.mean_access_ns, next_scalar.mean_access_ns);
  EXPECT_EQ(batched.clock.now_ns(), scalar.clock.now_ns());
}

TEST(MemoryController, BatchRejectsOutOfRangeBeforeMeasuring) {
  controller_fixture f;
  const std::vector<addr_pair> bad{{0, 64}, {f.spec.memory_bytes, 0}};
  EXPECT_THROW((void)f.mc.measure_pairs(bad, 10), contract_violation);
  // Validation happens in the decode phase, before any noise is drawn.
  EXPECT_EQ(f.mc.measurement_count(), 0u);
}

TEST(MemoryController, EmptyBatchIsANoOp) {
  controller_fixture f;
  EXPECT_TRUE(f.mc.measure_pairs({}, 10).empty());
  EXPECT_EQ(f.mc.access_count(), 0u);
}

TEST(MemoryController, DeterministicForEqualSeeds) {
  controller_fixture a(42), b(42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.mc.measure_pair(0, 1ull << 20, 100).mean_access_ns,
                     b.mc.measure_pair(0, 1ull << 20, 100).mean_access_ns);
  }
}

}  // namespace
}  // namespace dramdig::sim
