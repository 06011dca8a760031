#include "core/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/address_selection.h"
#include "core_test_util.h"
#include "util/bitops.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;

/// The machine's coarse "covered" bit set — every bit feeding a bank
/// function, shared row bits included — i.e. what Step 2 hands to the
/// partition stage.
std::vector<unsigned> covered_bits(const pipeline_fixture& f) {
  std::uint64_t covered = 0;
  for (const std::uint64_t fn : f.env.spec().mapping.bank_functions()) {
    covered |= fn;
  }
  return bits_of_mask(covered);
}

std::vector<std::uint64_t> pool_for(pipeline_fixture& f) {
  const auto sel = select_addresses(f.buffer, covered_bits(f));
  EXPECT_TRUE(sel.found);
  return sel.pool;
}

/// Pure piles, no two piles of one bank, and every pile inside the delta
/// window — the partition contract on every machine.
void expect_sound_partition(const partition_outcome& out,
                            const dram::address_mapping& truth,
                            std::size_t pool_size, unsigned bank_count,
                            const partition_config& config,
                            const char* label) {
  ASSERT_TRUE(out.success) << label;
  const double pile_sz =
      static_cast<double>(pool_size) / static_cast<double>(bank_count);
  std::set<std::uint64_t> banks_seen;
  std::set<std::uint64_t> addresses;
  for (const auto& pile : out.piles) {
    const std::uint64_t bank = truth.bank_of(pile.front());
    for (const std::uint64_t p : pile) {
      EXPECT_EQ(truth.bank_of(p), bank) << label << ": polluted pile";
      EXPECT_TRUE(addresses.insert(p).second)
          << label << ": address in two piles";
    }
    EXPECT_TRUE(banks_seen.insert(bank).second)
        << label << ": two piles of one bank";
    EXPECT_GE(static_cast<double>(pile.size()),
              (1.0 - config.delta_lower) * pile_sz)
        << label;
    EXPECT_LE(static_cast<double>(pile.size()),
              (1.0 + config.delta) * pile_sz + 1)
        << label;
  }
  EXPECT_GE(out.partitioned, pool_size * 85 / 100) << label;
}

TEST(Classifier, RepresentativePartitionIsSoundOnEveryPaperMachine) {
  // On every paper preset: piles pure, one pile per bank, delta window
  // honoured, and at least the per_threshold share of the pool assigned.
  for (int machine = 1; machine <= 9; ++machine) {
    pipeline_fixture f(machine);
    const auto pool = pool_for(f);
    const unsigned banks =
        static_cast<unsigned>(f.env.spec().mapping.bank_count());
    const partition_config cfg{};
    const auto out = partition_pool(f.channel, pool, banks, f.r, cfg);
    expect_sound_partition(out, f.env.spec().mapping, pool.size(), banks, cfg,
                           ("No." + std::to_string(machine)).c_str());
  }
}

TEST(Classifier, DeltaWindowHoldsOnNoisyProfilesAcrossSeeds) {
  // The ROADMAP flagged the representative path's noise profile as the
  // open question: validate the delta window and pile purity on the two
  // noisy mobile units across several measurement-noise seeds.
  for (const int machine : {3, 7}) {
    for (const std::uint64_t seed : {7ull, 21ull, 77ull}) {
      pipeline_fixture f(machine, seed);
      const auto pool = pool_for(f);
      const unsigned banks =
          static_cast<unsigned>(f.env.spec().mapping.bank_count());
      const partition_config cfg{};
      const auto out = partition_pool(f.channel, pool, banks, f.r, cfg);
      expect_sound_partition(
          out, f.env.spec().mapping, pool.size(), banks, cfg,
          ("No." + std::to_string(machine) + " seed " + std::to_string(seed))
              .c_str());
    }
  }
}

TEST(Classifier, RepresentativesArePairwiseRowDistinctVerifiedMembers) {
  // The property the fallback vote rests on: a class's representatives
  // are same-bank members sitting in pairwise different rows, so an
  // address can share a row with at most one of them.
  for (const int machine : {1, 2, 6}) {
    pipeline_fixture f(machine);
    const auto pool = pool_for(f);
    const unsigned banks =
        static_cast<unsigned>(f.env.spec().mapping.bank_count());
    measurement_plan plan(f.channel);
    bank_classifier engine(plan);
    const auto out = partition_pool(engine, pool, banks, f.r, {});
    ASSERT_TRUE(out.success);
    ASSERT_FALSE(engine.classes().empty());
    const auto& truth = f.env.spec().mapping;
    for (const bank_class& c : engine.classes()) {
      ASSERT_FALSE(c.representatives.empty());
      for (const std::uint64_t rep : c.representatives) {
        EXPECT_NE(std::find(c.members.begin(), c.members.end(), rep),
                  c.members.end())
            << "representative is not a member";
        EXPECT_EQ(truth.bank_of(rep), truth.bank_of(c.members.front()));
      }
      for (std::size_t i = 0; i < c.representatives.size(); ++i) {
        for (std::size_t j = i + 1; j < c.representatives.size(); ++j) {
          EXPECT_NE(truth.row_of(c.representatives[i]),
                    truth.row_of(c.representatives[j]))
              << "representatives share a row";
        }
      }
    }
  }
}

TEST(Classifier, DirectoryReuseMakesRepeatPartitionsFree) {
  // The bank-count sweep's fast path: a surviving class directory
  // re-resolves the whole pool from the plan's union-find, so repeat
  // partitions of a classified pool cost (almost) nothing.
  pipeline_fixture f(1);
  const auto pool = pool_for(f);
  const unsigned banks =
      static_cast<unsigned>(f.env.spec().mapping.bank_count());
  measurement_plan plan(f.channel);
  bank_classifier engine(plan);
  auto& controller = f.env.mach().controller();

  const std::uint64_t base = controller.measurement_count();
  const auto first = partition_pool(engine, pool, banks, f.r, {});
  ASSERT_TRUE(first.success);
  const std::uint64_t cost1 = controller.measurement_count() - base;

  const auto second = partition_pool(engine, pool, banks, f.r, {});
  ASSERT_TRUE(second.success);
  const std::uint64_t cost2 = controller.measurement_count() - base - cost1;
  EXPECT_LT(cost2, cost1 / 10);
  EXPECT_EQ(second.piles.size(), first.piles.size());
  EXPECT_GE(second.partitioned, first.partitioned);
  EXPECT_GT(second.reused_verdicts, 0u);

  // clear() drops the directory: the next call measures again.
  engine.clear();
  const auto third = partition_pool(engine, pool, banks, f.r, {});
  ASSERT_TRUE(third.success);
  EXPECT_GT(controller.measurement_count() - base - cost1 - cost2, cost2);
}

TEST(Classifier, RepresentativePathRejectsWrongBankCount) {
  // 64 piles requested on a 16-bank machine: every founder scan's pile is
  // ~4x oversized for the window, so the engine must fail without
  // fabricating classes — the blind bank-count sweep depends on it.
  pipeline_fixture f(3);
  const auto pool = pool_for(f);
  partition_config cfg{};
  cfg.max_pivot_attempts = 40;
  const auto out = partition_pool(f.channel, pool, 64, f.r, cfg);
  EXPECT_FALSE(out.success);
  EXPECT_TRUE(out.piles.empty());
}

TEST(Classifier, PredictionAccountingExposedInOutcome) {
  // On a clean preset the GF(2) prediction should carry nearly all
  // assignments (the knowledge-assisted fast path this engine exists
  // for), with founder scans bounded by the bank count.
  pipeline_fixture f(2);
  const auto pool = pool_for(f);
  const unsigned banks =
      static_cast<unsigned>(f.env.spec().mapping.bank_count());
  const auto out = partition_pool(f.channel, pool, banks, f.r, {});
  ASSERT_TRUE(out.success);
  EXPECT_LE(out.founder_scans, banks + 4);
  EXPECT_GT(out.predicted_assignments, out.partitioned / 2);
  EXPECT_GT(out.representative_votes + out.fallback_votes, 0u);
}

}  // namespace
}  // namespace dramdig::core
