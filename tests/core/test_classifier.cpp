#include "core/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "core/address_selection.h"
#include "core_test_util.h"
#include "util/bitops.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;
using testing::run_state;

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
    run_state s(f);
    const auto out = s.classifier.partition(pool, banks, f.r, cfg);
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
      run_state s(f);
      const auto out = s.classifier.partition(pool, banks, f.r, cfg);
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
    run_state s(f);
    bank_classifier& engine = s.classifier;
    const auto out = engine.partition(pool, banks, f.r, {});
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
  run_state s(f);
  bank_classifier& engine = s.classifier;
  auto& controller = f.env.mach().controller();

  const std::uint64_t base = controller.measurement_count();
  const auto first = engine.partition(pool, banks, f.r, {});
  ASSERT_TRUE(first.success);
  const std::uint64_t cost1 = controller.measurement_count() - base;

  const auto second = engine.partition(pool, banks, f.r, {});
  ASSERT_TRUE(second.success);
  const std::uint64_t cost2 = controller.measurement_count() - base - cost1;
  EXPECT_LT(cost2, cost1 / 10);
  EXPECT_EQ(second.piles.size(), first.piles.size());
  EXPECT_GE(second.partitioned, first.partitioned);
  EXPECT_GT(second.reused_verdicts, 0u);

  // clear() drops the directory: the next call measures again.
  engine.clear();
  const auto third = engine.partition(pool, banks, f.r, {});
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
  run_state s(f);
  const auto out = s.classifier.partition(pool, 64, f.r, cfg);
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
  run_state s(f);
  const auto out = s.classifier.partition(pool, banks, f.r, {});
  ASSERT_TRUE(out.success);
  EXPECT_LE(out.founder_scans, banks + 4);
  EXPECT_GT(out.predicted_assignments, out.partitioned / 2);
  EXPECT_GT(out.representative_votes + out.fallback_votes, 0u);
}

TEST(Classifier, TrueWarmHintMakesEveryFounderScanAGroupScan) {
  // Fleet warm start with the machine's own span: the prediction is
  // trusted from round 0, so even the first founder scan is limited to its
  // predicted group, and no measured difference ever refutes the hint.
  pipeline_fixture f(2);
  const auto pool = pool_for(f);
  const auto& truth = f.env.spec().mapping;
  const unsigned banks = truth.bank_count();
  run_state s(f);
  bank_classifier& engine = s.classifier;
  engine.warm_start(truth.bank_functions());
  ASSERT_TRUE(engine.warm_hint_active());
  const partition_config cfg{};
  const auto out = engine.partition(pool, banks, f.r, cfg);
  expect_sound_partition(out, truth, pool.size(), banks, cfg, "true hint");
  EXPECT_GT(out.founder_scans, 0u);
  EXPECT_EQ(out.group_founder_scans, out.founder_scans);
  EXPECT_TRUE(engine.warm_hint_active());
}

TEST(Classifier, TrueWarmHintFoundsLargestGroupsFirstInPoolOrder) {
  // The founder rule of trusted rounds: each new class is founded from a
  // largest predicted group among those without a class, counting only
  // addresses outside the earlier classes, and its founder is the
  // smallest pool index of any such group. Under the machine's own span
  // the predicted groups are the true banks.
  for (const int machine : {2, 6}) {
    pipeline_fixture f(machine);
    const auto pool = pool_for(f);
    const auto& truth = f.env.spec().mapping;
    run_state s(f);
    bank_classifier& engine = s.classifier;
    engine.warm_start(truth.bank_functions());
    const auto out = engine.partition(pool, truth.bank_count(), f.r, {});
    ASSERT_TRUE(out.success) << "No." << machine;
    ASSERT_EQ(out.rejected_piles, 0u) << "No." << machine;
    ASSERT_FALSE(engine.classes().empty());

    std::set<std::uint64_t> earlier_members;
    std::set<std::uint64_t> founded_groups;
    for (const bank_class& c : engine.classes()) {
      std::map<std::uint64_t, std::size_t> group_size;
      for (const std::uint64_t a : pool) {
        if (earlier_members.count(a) != 0) continue;
        if (founded_groups.count(truth.bank_of(a)) != 0) continue;
        ++group_size[truth.bank_of(a)];
      }
      std::size_t largest = 0;
      for (const auto& [group, size] : group_size) {
        largest = std::max(largest, size);
      }
      const auto first = std::find_if(
          pool.begin(), pool.end(), [&](std::uint64_t a) {
            const auto hit = group_size.find(truth.bank_of(a));
            return earlier_members.count(a) == 0 && hit != group_size.end() &&
                   hit->second == largest;
          });
      ASSERT_NE(first, pool.end());
      const std::uint64_t founder = c.representatives.front();
      EXPECT_EQ(group_size[truth.bank_of(founder)], largest)
          << "No." << machine << ": founder not from a largest group";
      EXPECT_EQ(founder, *first)
          << "No." << machine << ": founder not first in pool order";
      earlier_members.insert(c.members.begin(), c.members.end());
      founded_groups.insert(truth.bank_of(founder));
    }
  }
}

TEST(Classifier, FlippedWarmHintFailsWithoutFabricatingPiles) {
  // One mask of the hint flipped (it gains a bit that varies inside every
  // bank): every predicted group now holds half of two banks. Trusted
  // prediction only ever measures pairs inside one group, so no measured
  // difference contradicts the hint and it stays installed; instead every
  // group founder pile is half a bank and the delta window rejects it, so
  // the call fails without a single (impure or duplicate) pile. That
  // failure is the pipeline's signal: clear(), the one drop path, removes
  // the hint and the retry partitions cold and sound.
  pipeline_fixture f(2);
  const auto pool = pool_for(f);
  const auto& truth = f.env.spec().mapping;
  const unsigned banks = truth.bank_count();
  gf2::matrix hint = truth.bank_functions();
  hint[0] ^= std::uint64_t{1} << (63 - std::countl_zero(hint[1]));
  run_state s(f);
  bank_classifier& engine = s.classifier;
  engine.warm_start(hint);
  const partition_config cfg{};
  const auto warm = engine.partition(pool, banks, f.r, cfg);
  EXPECT_FALSE(warm.success);
  EXPECT_TRUE(warm.piles.empty());
  EXPECT_TRUE(engine.classes().empty());
  EXPECT_EQ(warm.group_founder_scans, warm.founder_scans);
  EXPECT_TRUE(engine.warm_hint_active());

  engine.clear();
  EXPECT_FALSE(engine.warm_hint_active());
  const auto cold = engine.partition(pool, banks, f.r, cfg);
  expect_sound_partition(cold, truth, pool.size(), banks, cfg,
                         "retry after a flipped hint");
}

}  // namespace
}  // namespace dramdig::core
