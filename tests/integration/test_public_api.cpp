// The umbrella-header experience: everything a downstream user needs in
// one include, plus contract checks on the public configuration structs.
#include "dramdig.h"

#include <gtest/gtest.h>

namespace {

using namespace dramdig;

TEST(PublicApi, UmbrellaHeaderCoversTheQuickstartPath) {
  core::environment env(dram::machine_by_number(4), 2026);
  core::dramdig_tool tool(env);
  const auto report = tool.run();
  ASSERT_TRUE(report.success);
  EXPECT_TRUE(report.mapping->equivalent_to(env.spec().mapping));
}

TEST(PublicApi, UmbrellaHeaderCoversTheUnifiedApiPath) {
  // The documented one-tool and many-run paths, exactly as the umbrella
  // header's comment advertises them: the same record, graded by the
  // service.
  core::environment env(dram::machine_by_number(4), 2026);
  core::tool_result result = core::dramdig_tool(env).run();
  EXPECT_FALSE(result.verified);

  const auto outcomes = api::mapping_service().run(
      {{dram::machine_by_number(4), "dramdig", {}, 2026}});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, api::job_state::completed);
  EXPECT_TRUE(outcomes[0].result.verified);
  result.verified = true;
  EXPECT_EQ(outcomes[0].result.to_json_string(), result.to_json_string());
}

TEST(PublicApi, ToolConfigContractsAreEnforced) {
  core::environment env(dram::machine_by_number(4), 1);
  core::dramdig_config bad{};
  bad.buffer_fraction = 0.0;
  EXPECT_THROW(core::dramdig_tool(env, bad), contract_violation);
  bad.buffer_fraction = 1.5;
  EXPECT_THROW(core::dramdig_tool(env, bad), contract_violation);
  // Zero attempts would spend calibration and coarse detection, then fail
  // with "partition never stabilized" without ever partitioning.
  bad = {};
  bad.max_attempts = 0;
  EXPECT_THROW(core::dramdig_tool(env, bad), contract_violation);
}

TEST(PublicApi, DramaConfigContractsAreEnforced) {
  core::environment env(dram::machine_by_number(4), 1);
  baselines::drama_config bad{};
  bad.pool_size = 2;
  EXPECT_THROW(baselines::drama_tool(env, bad), contract_violation);
}

TEST(PublicApi, HammerConfigContractsAreEnforced) {
  const auto& spec = dram::machine_by_number(4);
  sim::machine machine(spec, 1, sim::timing_profile_for(spec));
  rng r(1);
  rowhammer::hammer_config bad{};
  bad.duration_seconds = 0.0;
  EXPECT_THROW(
      (void)rowhammer::run_double_sided_test(machine, spec.mapping, r, bad),
      contract_violation);
}

TEST(PublicApi, SpanEquivalentHypothesesHammerIdentically) {
  // A downstream consumer may hold any basis of the function space; both
  // place aggressors identically.
  const auto& spec = dram::machine_by_number(1);
  const auto& truth = spec.mapping;
  std::vector<std::uint64_t> alt = truth.bank_functions();
  alt[1] ^= alt[2];  // different basis, same span
  const dram::address_mapping rebased(alt, truth.row_bits(),
                                      truth.column_bits(),
                                      truth.address_bits());
  ASSERT_TRUE(rebased.equivalent_to(truth));

  sim::machine m1(spec, 4, sim::timing_profile_for(spec));
  sim::machine m2(spec, 4, sim::timing_profile_for(spec));
  rng r1(9), r2(9);
  rowhammer::hammer_config cfg{};
  cfg.duration_seconds = 30;
  const auto a = rowhammer::run_double_sided_test(m1, truth, r1, cfg);
  const auto b = rowhammer::run_double_sided_test(m2, rebased, r2, cfg);
  EXPECT_EQ(a.true_double_sided, a.windows);
  EXPECT_EQ(b.true_double_sided, b.windows);
}

}  // namespace
