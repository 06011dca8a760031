#include "core/partition.h"

#include <gtest/gtest.h>

#include <set>

#include "core/address_selection.h"
#include "core_test_util.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;
using testing::run_state;

/// Selection pool for a machine's true coarse bank bits.
std::vector<std::uint64_t> pool_for(pipeline_fixture& f,
                                    std::vector<unsigned> bank_bits) {
  const auto sel = select_addresses(f.buffer, bank_bits);
  EXPECT_TRUE(sel.found);
  return sel.pool;
}

TEST(Partition, MachineNo1PilesAreTrueBanks) {
  pipeline_fixture f(1);
  auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  run_state s(f);
  const auto out = s.classifier.partition(pool, 16, f.r, {});
  ASSERT_TRUE(out.success);
  // >= 85% of the pool assigned.
  EXPECT_GE(out.partitioned, pool.size() * 85 / 100);
  // Every pile is pure: all members share the true flat bank.
  const auto& truth = f.env.spec().mapping;
  for (const auto& pile : out.piles) {
    const std::uint64_t bank = truth.bank_of(pile.front());
    for (std::uint64_t p : pile) {
      EXPECT_EQ(truth.bank_of(p), bank);
    }
  }
}

TEST(Partition, PilesAreDisjoint) {
  pipeline_fixture f(1);
  auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  run_state s(f);
  const auto out = s.classifier.partition(pool, 16, f.r, {});
  ASSERT_TRUE(out.success);
  std::set<std::uint64_t> seen;
  for (const auto& pile : out.piles) {
    for (std::uint64_t p : pile) {
      EXPECT_TRUE(seen.insert(p).second) << "address in two piles";
    }
  }
}

TEST(Partition, PileCountApproachesBankCount) {
  pipeline_fixture f(3);
  auto pool = pool_for(f, {13, 14, 15, 16, 17, 18, 19, 20});
  run_state s(f);
  const auto out = s.classifier.partition(pool, 16, f.r, {});
  ASSERT_TRUE(out.success);
  // With per_threshold = 0.85 nearly all banks get a pile.
  EXPECT_GE(out.piles.size(), 13u);
  EXPECT_LE(out.piles.size(), 16u);
}

TEST(Partition, PileSizesWithinDeltaWindow) {
  pipeline_fixture f(3);
  auto pool = pool_for(f, {13, 14, 15, 16, 17, 18, 19, 20});
  const double pile_sz = static_cast<double>(pool.size()) / 16.0;
  run_state s(f);
  const auto out = s.classifier.partition(pool, 16, f.r, {});
  ASSERT_TRUE(out.success);
  for (const auto& pile : out.piles) {
    EXPECT_GE(static_cast<double>(pile.size()), (1.0 - 0.4) * pile_sz);
    EXPECT_LE(static_cast<double>(pile.size()), (1.0 + 0.2) * pile_sz + 1);
  }
}

TEST(Partition, WrongBankCountIsRejected) {
  // Asking for 64 piles on a 16-bank machine: every candidate pile is ~4x
  // oversized relative to pool/64, so the delta window rejects everything.
  pipeline_fixture f(3);
  auto pool = pool_for(f, {13, 14, 15, 16, 17, 18, 19, 20});
  partition_config cfg{};
  cfg.max_pivot_attempts = 40;
  run_state s(f);
  const auto out = s.classifier.partition(pool, 64, f.r, cfg);
  EXPECT_FALSE(out.success);
  EXPECT_TRUE(out.piles.empty());
}

TEST(Partition, SurvivesNoisyMachine) {
  pipeline_fixture f(7, 21);
  auto pool = pool_for(f, {6, 13, 14, 15, 16, 17});
  run_state s(f);
  const auto out = s.classifier.partition(pool, 8, f.r, {});
  ASSERT_TRUE(out.success);
  const auto& truth = f.env.spec().mapping;
  for (const auto& pile : out.piles) {
    const std::uint64_t bank = truth.bank_of(pile.front());
    for (std::uint64_t p : pile) {
      EXPECT_EQ(truth.bank_of(p), bank) << "polluted pile on noisy machine";
    }
  }
}

TEST(Partition, RequiresSanePool) {
  pipeline_fixture f(1);
  std::vector<std::uint64_t> tiny{0, 64};
  run_state s(f);
  EXPECT_THROW((void)s.classifier.partition(tiny, 16, f.r, {}),
               contract_violation);
}

TEST(Partition, StopThresholdHonored) {
  pipeline_fixture f(1);
  auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  partition_config cfg{};
  cfg.per_threshold = 0.5;  // stop earlier
  run_state s(f);
  const auto out = s.classifier.partition(pool, 16, f.r, cfg);
  ASSERT_TRUE(out.success);
  EXPECT_GE(out.partitioned, pool.size() / 2);
  // Early stop means fewer piles than banks is acceptable.
  EXPECT_LE(out.piles.size(), 16u);
}

}  // namespace
}  // namespace dramdig::core
