// Cross-cutting simulation properties: invariants that hold across the
// whole platform rather than within one module.
#include <gtest/gtest.h>

#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "rowhammer/harness.h"
#include "sim/profiles.h"
#include "util/log.h"

namespace dramdig {
namespace {

TEST(SimulationProperties, FlipYieldScalesWithDuration) {
  // Twice the hammer time, roughly twice the (fresh-victim) flips.
  const auto& spec = dram::machine_by_number(2);
  auto flips_for = [&](double seconds) {
    sim::machine machine(spec, 12, sim::timing_profile_for(spec));
    rng r(12);
    rowhammer::hammer_config cfg{};
    cfg.duration_seconds = seconds;
    return rowhammer::run_double_sided_test(machine, spec.mapping, r, cfg)
        .bit_flips;
  };
  const auto short_run = flips_for(60);
  const auto long_run = flips_for(240);
  EXPECT_GT(long_run, short_run * 2);
  EXPECT_LT(long_run, short_run * 8 + 40);
}

TEST(SimulationProperties, VirtualTimeIsDeterministic) {
  // Same spec + seed => bit-identical virtual cost, the property Fig. 2
  // rests on.
  auto run_seconds = [](std::uint64_t seed) {
    core::environment env(dram::machine_by_number(4), seed);
    core::dramdig_tool tool(env);
    return tool.run().virtual_seconds;
  };
  EXPECT_DOUBLE_EQ(run_seconds(77), run_seconds(77));
}

TEST(SimulationProperties, MeasurementCountDrivesVirtualTime) {
  // Virtual seconds and measurement counts move together: the cost model
  // is measurements, not wall luck.
  core::environment small_env(dram::machine_by_number(4), 3);
  const auto small = core::dramdig_tool(small_env).run();
  core::environment large_env(dram::machine_by_number(6), 3);
  const auto large = core::dramdig_tool(large_env).run();
  ASSERT_TRUE(small.success);
  ASSERT_TRUE(large.success);
  EXPECT_GT(large.measurement_count, small.measurement_count * 10);
  EXPECT_GT(large.virtual_seconds, small.virtual_seconds * 10);
}

TEST(SimulationProperties, EnvironmentSeedControlsEverything) {
  // Two environments with equal seed produce identical pipelines end to
  // end (mapping AND cost), different seeds may differ in cost only.
  const auto& spec = dram::machine_by_number(8);
  core::environment a(spec, 5), b(spec, 5), c(spec, 6);
  const auto ra = core::dramdig_tool(a).run();
  const auto rb = core::dramdig_tool(b).run();
  const auto rc = core::dramdig_tool(c).run();
  EXPECT_DOUBLE_EQ(ra.virtual_seconds, rb.virtual_seconds);
  ASSERT_TRUE(ra.mapping && rb.mapping && rc.mapping);
  EXPECT_TRUE(ra.mapping->equivalent_to(*rb.mapping));
  EXPECT_TRUE(ra.mapping->equivalent_to(*rc.mapping));  // determinism
}

TEST(SimulationProperties, LogLevelsAreHonored) {
  set_log_level(log_level::off);
  EXPECT_EQ(current_log_level(), log_level::off);
  set_log_level(log_level::debug);
  EXPECT_EQ(current_log_level(), log_level::debug);
  // Emitting at any level must not crash regardless of the setting.
  log_info("info line");
  log_debug("debug line");
  log_error("error line");
  set_log_level(log_level::off);
}

TEST(SimulationProperties, TimingProfilesOrderByQuality) {
  dram::machine_spec clean = dram::machine_by_number(1);
  dram::machine_spec mobile = dram::machine_by_number(2);
  dram::machine_spec noisy = dram::machine_by_number(3);
  const auto tc = sim::timing_profile_for(clean);
  const auto tm = sim::timing_profile_for(mobile);
  const auto tn = sim::timing_profile_for(noisy);
  EXPECT_LT(tc.contamination_chance, tm.contamination_chance);
  EXPECT_LT(tm.contamination_chance, tn.contamination_chance);
  EXPECT_GT(tc.burst_mean_interval_s, tn.burst_mean_interval_s);
}

}  // namespace
}  // namespace dramdig
