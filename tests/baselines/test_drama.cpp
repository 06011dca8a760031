#include "baselines/drama.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "core/environment.h"
#include "dram/presets.h"
#include "util/gf2.h"

namespace dramdig::baselines {
namespace {

/// Small/fast DRAMA configuration for unit tests (the default config runs
/// for virtual hours; these tests probe behaviour, not Fig. 2 numbers).
drama_config fast_config() {
  drama_config cfg{};
  cfg.pool_size = 2000;
  cfg.calibration_pairs = 300;
  cfg.max_trials = 6;
  return cfg;
}

TEST(Drama, CompletesAndFindsSpanOnCleanDesktop) {
  core::environment env(dram::machine_by_number(1), 5);
  drama_tool tool(env, fast_config());
  const auto report = tool.run();
  ASSERT_TRUE(report.success);
  ASSERT_TRUE(report.mapping.has_value());
  EXPECT_TRUE(gf2::same_span(report.mapping->bank_functions(),
                             env.spec().mapping.bank_functions()));
  // Row heuristic lands on the truth for No.1 (rank 4 -> rows 17..32).
  EXPECT_EQ(report.mapping->row_bits(), env.spec().mapping.row_bits());
}

TEST(Drama, NeverFinishesOnNoisyMobile) {
  // The paper ran DRAMA for ~2 hours on machines No.3/No.7 without output.
  core::environment env(dram::machine_by_number(3), 5);
  drama_config cfg = fast_config();
  cfg.max_trials = 8;
  drama_tool tool(env, cfg);
  const auto report = tool.run();
  EXPECT_FALSE(report.success);
  // The best effort is the latest valid trial, so a best effort of fewer
  // than two functions means no trial was valid.
  EXPECT_TRUE(!report.mapping || report.mapping->bank_functions().size() < 2)
      << "noisy unit produced a valid trial";
}

TEST(Drama, TimeoutBindsWhenTrialsAllowIt) {
  core::environment env(dram::machine_by_number(7), 5);
  drama_config cfg = fast_config();
  cfg.max_trials = 1000;
  cfg.timeout_seconds = 600;  // shrink the budget to keep the test fast
  drama_tool tool(env, cfg);
  const auto report = tool.run();
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.outcome, "timeout");
  EXPECT_GE(report.virtual_seconds, 600.0);
}

TEST(Drama, NondeterministicAcrossRuns) {
  // "DRAMA generated different DRAM mappings most of the time" — across
  // seeds on the mobile No.2 the canonical outputs differ.
  std::set<gf2::matrix> outputs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::environment env(dram::machine_by_number(2), seed);
    drama_tool tool(env, fast_config());
    const auto report = tool.run();
    outputs.insert(report.mapping
                       ? gf2::row_echelon(report.mapping->bank_functions())
                       : gf2::matrix{});
  }
  EXPECT_GT(outputs.size(), 1u);
}

TEST(Drama, TrialsRecordedForPostMortem) {
  core::environment env(dram::machine_by_number(1), 9);
  unsigned trials = 0;
  const auto report = drama_tool(env, fast_config())
                          .run([&](std::string_view phase,
                                   const core::phase_stats&) {
                            EXPECT_EQ(phase, "trial");
                            ++trials;
                          });
  EXPECT_GE(trials, 1u);
  EXPECT_EQ(report.detail, std::to_string(trials) + " trials");
}

TEST(Drama, MeasurementCostDominatesRuntime) {
  core::environment env(dram::machine_by_number(1), 10);
  drama_tool tool(env, fast_config());
  const auto report = tool.run();
  EXPECT_GT(report.measurement_count, 10000u);
  EXPECT_GT(report.virtual_seconds, 10.0);
}

TEST(DramaHypothesis, RowGuessMatchesRankArithmetic) {
  // 33-bit machine, 4 functions -> rows are the top 16 bits.
  const auto m = drama_hypothesis(
      {(1ull << 14) | (1ull << 17), (1ull << 15) | (1ull << 18),
       (1ull << 16) | (1ull << 19), 1ull << 6},
      33);
  ASSERT_EQ(m.row_bits().size(), 16u);
  EXPECT_EQ(m.row_bits().front(), 17u);
  EXPECT_EQ(m.row_bits().back(), 32u);
  EXPECT_EQ(m.column_bits().size(), 13u);
}

TEST(DramaHypothesis, MissingFunctionShiftsRowsOffByOne) {
  // When DRAMA misses one function its row guess absorbs a bank bit —
  // the mechanism behind its near-zero rowhammer yields.
  const auto m = drama_hypothesis(
      {(1ull << 14) | (1ull << 18), (1ull << 15) | (1ull << 19),
       (1ull << 16) | (1ull << 20), (1ull << 17) | (1ull << 21)},
      33);  // truth (machine No.2) has five functions
  const auto& truth = dram::machine_by_number(2).mapping;
  EXPECT_NE(m.row_bits(), truth.row_bits());
}

TEST(DramaHypothesis, RejectsEmptyFunctions) {
  EXPECT_THROW((void)drama_hypothesis({}, 33), contract_violation);
}

}  // namespace
}  // namespace dramdig::baselines
