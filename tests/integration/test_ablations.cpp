// Ablations of the "knowledge-assisted" ingredients — what the design
// claims each piece of domain knowledge buys.
#include <gtest/gtest.h>

#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"

namespace dramdig::core {
namespace {

TEST(AblationSystemInfo, UnknownBankCountCostsTimeButCanRecover) {
  // Without dmidecode/decode-dimms the tool sweeps candidate bank counts.
  const auto& spec = dram::machine_by_number(4);

  environment with_env(spec, 42);
  dramdig_config with_cfg{};
  const auto with = dramdig_tool(with_env, with_cfg).run();
  ASSERT_TRUE(with.success);

  environment without_env(spec, 42);
  dramdig_config without_cfg{};
  without_cfg.use_system_info = false;
  const auto without = dramdig_tool(without_env, without_cfg).run();

  if (without.success) {
    EXPECT_TRUE(without.mapping->equivalent_to(spec.mapping));
    // The blind sweep tries wrong bank counts first: strictly more work.
    EXPECT_GT(without.virtual_seconds, with.virtual_seconds);
  }
}

TEST(AblationSpecCounts, WithoutJedecCountsSharedBitsStayCovered) {
  // Machine No.1 has three shared row bits; without the spec's row-count
  // the fine-grained step cannot know to recover them.
  const auto& spec = dram::machine_by_number(1);
  environment env(spec, 43);
  dramdig_config cfg{};
  cfg.use_spec_counts = false;
  const auto report = dramdig_tool(env, cfg).run();
  EXPECT_FALSE(report.success);
  ASSERT_TRUE(report.mapping.has_value());
  // The coarse-only mapping misses rows 17-19.
  EXPECT_LT(report.mapping->row_bits().size(),
            spec.mapping.row_bits().size());
  EXPECT_FALSE(report.mapping->is_bijective());
}

TEST(AblationVerification, UnverifiedPartitionFailsOnNoisyUnits) {
  // Turn off the positive-verification pass: on the noisy mobile units the
  // single-sample scan pollutes piles and the function intersection
  // collapses (this is essentially what breaks DRAMA there).
  const auto& spec = dram::machine_by_number(7);
  int failures = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    environment env(spec, seed);
    dramdig_config cfg{};
    cfg.partition.verify_positives = false;
    cfg.max_attempts = 1;
    const auto report = dramdig_tool(env, cfg).run();
    if (!report.success ||
        !report.mapping->equivalent_to(spec.mapping)) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 0) << "noisy machine should break unverified piles";
}

TEST(AblationVerification, VerifiedPartitionSurvivesNoisyUnits) {
  const auto& spec = dram::machine_by_number(7);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    environment env(spec, seed);
    const auto report = dramdig_tool(env).run();
    ASSERT_TRUE(report.success) << "seed " << seed;
    EXPECT_TRUE(report.mapping->equivalent_to(spec.mapping));
  }
}

TEST(AblationBufferFraction, TinyBufferCannotCoverBankBits) {
  // The real tool maps most of RAM for a reason: Algorithm 1 needs a
  // contiguous run covering the highest bank bit, and coarse detection
  // needs partners for high row bits.
  const auto& spec = dram::machine_by_number(6);
  environment env(spec, 44);
  dramdig_config cfg{};
  cfg.buffer_fraction = 0.01;  // 160 MiB of 16 GiB
  const auto report = dramdig_tool(env, cfg).run();
  // Either outright failure or a wrong mapping is acceptable — the claim
  // is only that the full-size buffer matters.
  if (report.success) {
    EXPECT_FALSE(report.mapping->equivalent_to(spec.mapping));
  }
}

}  // namespace
}  // namespace dramdig::core
