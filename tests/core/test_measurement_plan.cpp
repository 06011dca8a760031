#include "core/measurement_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/address_selection.h"
#include "core/partition.h"
#include "core_test_util.h"
#include "util/rng.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;

std::vector<std::uint64_t> pool_for(pipeline_fixture& f,
                                    std::vector<unsigned> bank_bits) {
  const auto sel = select_addresses(f.buffer, bank_bits);
  EXPECT_TRUE(sel.found);
  return sel.pool;
}

scan_options default_scan() {
  scan_options s{};
  s.verify_positives = true;
  s.prescreen_sample = 0;  // exercised separately
  return s;
}

TEST(MeasurementPlan, RescanIsAnsweredEntirelyFromCache) {
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  const auto first = plan.classify_partners(pivot, partners, default_scan());
  const std::uint64_t after_first =
      f.env.mach().controller().measurement_count();
  const auto second = plan.classify_partners(pivot, partners, default_scan());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), after_first)
      << "rescan paid for measurements the cache already holds";
  EXPECT_EQ(second.member, first.member);
  EXPECT_EQ(second.reused, partners.size());
  EXPECT_GT(plan.stats().measurements_saved, partners.size());
}

TEST(MeasurementPlan, RelationTracksVerdictsTransitively) {
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  EXPECT_EQ(plan.relation(pivot, partners[0]), pair_relation::unknown);
  const auto scan = plan.classify_partners(pivot, partners, default_scan());

  std::vector<std::uint64_t> members, outsiders;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    (scan.member[i] ? members : outsiders).push_back(partners[i]);
  }
  ASSERT_GE(members.size(), 2u);
  ASSERT_FALSE(outsiders.empty());
  EXPECT_EQ(plan.relation(pivot, members[0]), pair_relation::same_bank);
  // Transitivity through the union-find: two members never measured
  // against each other are still known same-bank.
  EXPECT_EQ(plan.relation(members[0], members[1]), pair_relation::same_bank);
  EXPECT_EQ(plan.relation(pivot, outsiders[0]), pair_relation::cross_pile);
  // The ground truth agrees with every cached member relation.
  const auto& truth = f.env.spec().mapping;
  for (std::uint64_t m : members) {
    EXPECT_EQ(truth.bank_of(m), truth.bank_of(pivot));
  }
}

TEST(MeasurementPlan, StrictMemoAnswersRepeatedVotes) {
  pipeline_fixture f(1);
  std::vector<sim::addr_pair> pairs;
  for (unsigned i = 1; i <= 32; ++i) {
    pairs.emplace_back(0, (std::uint64_t{i} << 14) &
                              (f.env.spec().memory_bytes - 1));
  }

  measurement_plan plan(f.channel);
  const auto first = plan.probe_pairs(pairs);
  EXPECT_EQ(first.reused, 0u);
  const std::uint64_t issued = f.env.mach().controller().measurement_count();
  // The memo key is the unordered pair: the same votes in swapped order
  // answer from it without touching the controller.
  std::vector<sim::addr_pair> swapped;
  for (const auto& [a, b] : pairs) swapped.emplace_back(b, a);
  const auto second = plan.probe_pairs(swapped);
  EXPECT_EQ(second.sbdr, first.sbdr);
  EXPECT_EQ(second.reused, pairs.size());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), issued);
}

TEST(MeasurementPlan, ScanSampleReuseSavesOneStrictMeasurementPerMember) {
  // Every strict-verified candidate folds its scan sample into the min
  // filter: it costs strict_samples() - 1 fresh measurements on top of
  // that sample instead of strict_samples(), and the plan books the one
  // measurement it saved.
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  const std::uint64_t before = f.env.mach().controller().measurement_count();
  const auto got = plan.classify_partners(pivot, partners, default_scan());
  const std::uint64_t spent =
      f.env.mach().controller().measurement_count() - before;

  // A fresh plan answers nothing from cache, so every saving is a folded
  // scan sample: one per strict-verified candidate.
  const std::uint64_t candidates = plan.stats().measurements_saved;
  EXPECT_EQ(spent, partners.size() +
                       candidates * (f.channel.strict_samples() - 1));
  EXPECT_EQ(plan.stats().measurements_issued, spent);
  std::size_t members = 0;
  for (char m : got.member) members += m != 0;
  EXPECT_GE(members, 2u);
  EXPECT_GE(candidates, members);
  // Folding the conditioned-positive sample keeps the verdicts sound.
  const auto& truth = f.env.spec().mapping;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (got.member[i]) {
      EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
    }
  }
}

TEST(MeasurementPlan, PrescreenRejectsHopelessPivotCheaply) {
  // A window sized for 8x the machine's real bank count: every pivot's
  // projected pile is ~8x oversized, so the pre-screen must reject from
  // its sample alone — this is the wrong-bank-count sweep's fast path.
  pipeline_fixture f(6);
  const auto pool = pool_for(f, {7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                 21, 22});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  scan_options scan = default_scan();
  scan.prescreen_sample = 64;
  const double pile = static_cast<double>(pool.size()) /
                      static_cast<double>(8 * f.knowledge.total_banks);
  scan.window = {0.6 * pile, 1.2 * pile};

  measurement_plan plan(f.channel);
  const std::uint64_t before = f.env.mach().controller().measurement_count();
  const auto got = plan.classify_partners(pivot, partners, scan);
  const std::uint64_t spent =
      f.env.mach().controller().measurement_count() - before;
  EXPECT_TRUE(got.prescreen_rejected);
  EXPECT_EQ(plan.stats().prescreen_rejections, 1u);
  // Far below a full scan (pool fast samples + strict verification).
  EXPECT_LT(spent, partners.size() / 2);
}

TEST(MeasurementPlan, PrescreenPassesInWindowPivots) {
  // The true window on the same machine: the pre-screen must not reject a
  // legitimate pivot, and the final members must be the true bank.
  pipeline_fixture f(6);
  const auto pool = pool_for(f, {7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                 21, 22});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  scan_options scan = default_scan();
  scan.prescreen_sample = 64;
  const double pile = static_cast<double>(pool.size()) /
                      static_cast<double>(f.knowledge.total_banks);
  scan.window = {0.6 * pile, 1.2 * pile};

  measurement_plan plan(f.channel);
  const auto got = plan.classify_partners(pivot, partners, scan);
  ASSERT_FALSE(got.prescreen_rejected);
  const auto& truth = f.env.spec().mapping;
  std::size_t members = 0;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (!got.member[i]) continue;
    ++members;
    EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
  }
  EXPECT_GT(static_cast<double>(members + 1), scan.window.lo);
}

TEST(MeasurementPlan, ResetDropsEveryCachedRelation) {
  // The pipeline's retry loop resets the plan so a poisoned merge cannot
  // outlive the attempt that produced it: after reset, nothing is implied
  // and a rescan pays for fresh measurements again.
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan(f.channel);
  const auto first = plan.classify_partners(pivot, partners, default_scan());
  ASSERT_GT(plan.class_count(), 0u);
  plan.reset();
  EXPECT_EQ(plan.class_count(), 0u);
  EXPECT_EQ(plan.relation(pivot, partners[0]), pair_relation::unknown);
  const std::uint64_t before = f.env.mach().controller().measurement_count();
  const auto second = plan.classify_partners(pivot, partners, default_scan());
  EXPECT_GT(f.env.mach().controller().measurement_count(), before)
      << "reset plan must re-measure";
  EXPECT_EQ(second.reused, 0u);
  // Verdicts still classify the true bank.
  const auto& truth = f.env.spec().mapping;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    if (second.member[i]) {
      EXPECT_EQ(truth.bank_of(partners[i]), truth.bank_of(pivot));
    }
  }
  (void)first;
}

TEST(MeasurementPlan, DeterministicOnParallelBatchPath) {
  // A >4096-partner scan pushes the controller's batched decode onto its
  // multi-shard path; the plan's verdicts, class structure and stats must
  // be identical to an equally seeded run (the controller guarantees
  // bit-identical batches on any thread count, and the plan must not add
  // any ordering of its own on top).
  pipeline_fixture a(6, 11), b(6, 11);
  const auto pool = pool_for(a, {7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                 21, 22});
  ASSERT_GT(pool.size(), 4096u);
  const std::uint64_t pivot = pool.front();
  const std::vector<std::uint64_t> partners(pool.begin() + 1, pool.end());

  measurement_plan plan_a(a.channel), plan_b(b.channel);
  const auto got_a = plan_a.classify_partners(pivot, partners, default_scan());
  const auto got_b = plan_b.classify_partners(pivot, partners, default_scan());
  EXPECT_EQ(got_a.member, got_b.member);
  EXPECT_EQ(plan_a.class_count(), plan_b.class_count());
  EXPECT_EQ(plan_a.stats().measurements_issued,
            plan_b.stats().measurements_issued);
  EXPECT_EQ(plan_a.stats().classes_merged, plan_b.stats().classes_merged);
  EXPECT_EQ(plan_a.stats().negatives_recorded,
            plan_b.stats().negatives_recorded);
  EXPECT_EQ(a.env.mach().clock().now_ns(), b.env.mach().clock().now_ns());
}

/// One pass of paper Algorithm 2's pivot loop straight through the plan:
/// scan a random pivot against the rest of the pool and extract the pile
/// when its size (pivot included) lands in the partition delta window.
struct pivot_pass {
  std::vector<std::vector<std::uint64_t>> piles;
  std::uint64_t reused = 0;
};

pivot_pass pivot_scan_pass(measurement_plan& plan,
                           std::vector<std::uint64_t> pool, unsigned banks,
                           rng& r) {
  const partition_config cfg{};
  const double pile = static_cast<double>(pool.size()) / banks;
  scan_options scan = default_scan();
  scan.prescreen_sample = cfg.prescreen_sample;
  scan.window = {(1.0 - cfg.delta_lower) * pile, (1.0 + cfg.delta) * pile};
  const auto stop_at = static_cast<std::size_t>(
      (1.0 - cfg.per_threshold) * static_cast<double>(pool.size()));

  pivot_pass out;
  for (unsigned attempt = 0; pool.size() > stop_at; ++attempt) {
    if (attempt == 4 * banks + 32) {
      ADD_FAILURE() << "pivot pass exceeded its attempts";
      break;
    }
    const std::size_t p = r.below(pool.size());
    std::vector<std::uint64_t> partners;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i == p) continue;
      partners.push_back(pool[i]);
      idx.push_back(i);
    }
    const auto got = plan.classify_partners(pool[p], partners, scan);
    out.reused += got.reused;
    if (got.prescreen_rejected) continue;
    std::vector<std::size_t> members;
    for (std::size_t j = 0; j < got.member.size(); ++j) {
      if (got.member[j]) members.push_back(idx[j]);
    }
    const double size = static_cast<double>(members.size() + 1);
    if (size < scan.window.lo || size > scan.window.hi) continue;

    std::vector<std::uint64_t> extracted{pool[p]};
    for (std::size_t i : members) extracted.push_back(pool[i]);
    members.push_back(p);
    std::sort(members.begin(), members.end(), std::greater<>());
    for (std::size_t i : members) {
      pool[i] = pool.back();
      pool.pop_back();
    }
    out.piles.push_back(std::move(extracted));
  }
  return out;
}

TEST(MeasurementPlan, RepeatedPartitionsGetSuperlinearlyCheaper) {
  // The headline reuse property: re-partitioning an already classified
  // pool (the bank-count sweep, the attempt loop) costs less every time.
  // Pass 2 gets the class members for free and seeds a second row-distinct
  // witness on every negative; by pass 3 the witness pairs answer the
  // negatives too, and scans cost almost nothing. Driven by bare pivot
  // scans: this is the plan's own reuse property, independent of the
  // classifier's class directory (which has its own test).
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  measurement_plan plan(f.channel);
  auto& controller = f.env.mach().controller();

  const std::uint64_t base = controller.measurement_count();
  const auto first = pivot_scan_pass(plan, pool, 16, f.r);
  const std::uint64_t cost1 = controller.measurement_count() - base;

  const auto second = pivot_scan_pass(plan, pool, 16, f.r);
  const std::uint64_t cost2 = controller.measurement_count() - base - cost1;

  const auto third = pivot_scan_pass(plan, pool, 16, f.r);
  const std::uint64_t cost3 =
      controller.measurement_count() - base - cost1 - cost2;

  EXPECT_LT(cost2, cost1 * 3 / 4);
  EXPECT_LT(cost3, cost2);
  EXPECT_LT(cost3, cost1 / 4);
  EXPECT_GT(second.reused, 0u);
  EXPECT_GT(third.reused, second.reused);
  // Piles stay pure banks throughout.
  const auto& truth = f.env.spec().mapping;
  for (const auto* pass : {&first, &second, &third}) {
    ASSERT_FALSE(pass->piles.empty());
    for (const auto& pile : pass->piles) {
      for (std::uint64_t p : pile) {
        EXPECT_EQ(truth.bank_of(p), truth.bank_of(pile.front()));
      }
    }
  }
}

TEST(MeasurementPlan, ClassifyPairsVerdictsMatchGroundTruthAndFeedCache) {
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const auto& truth = f.env.spec().mapping;

  // Anchor the pool's first address against every other: the verdict must
  // be "same bank AND different row", and every verdict must be queryable
  // from the cache afterwards.
  std::vector<sim::addr_pair> pairs;
  for (std::size_t i = 1; i < pool.size(); ++i) {
    pairs.emplace_back(pool.front(), pool[i]);
  }
  measurement_plan plan(f.channel);
  const auto votes = plan.classify_pairs(pairs, /*verify_positives=*/true);
  EXPECT_EQ(votes.reused, 0u);
  std::size_t positives = 0;
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    const bool same_bank_diff_row =
        truth.bank_of(pairs[j].first) == truth.bank_of(pairs[j].second) &&
        truth.row_of(pairs[j].first) != truth.row_of(pairs[j].second);
    EXPECT_EQ(votes.member[j] != 0, same_bank_diff_row);
    positives += votes.member[j] != 0;
    const pair_relation rel = plan.relation(pairs[j].first, pairs[j].second);
    EXPECT_EQ(rel, votes.member[j] ? pair_relation::same_bank
                                   : pair_relation::cross_pile);
  }
  ASSERT_GT(positives, 0u);

  // A repeat of the same votes answers entirely from the cache.
  const std::uint64_t count = f.env.mach().controller().measurement_count();
  const auto again = plan.classify_pairs(pairs, true);
  EXPECT_EQ(again.member, votes.member);
  EXPECT_EQ(again.reused, pairs.size());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), count);
}

TEST(MeasurementPlan, WitnessListsAreBoundedWithLruEviction) {
  // A long-lived service must not grow the witness lists without bound:
  // with max_witnesses = 2, a third rejecting anchor evicts the oldest
  // entry — that relation degrades to unknown (re-measurable), while the
  // recently recorded ones stay cached.
  pipeline_fixture f(1);
  const auto pool = pool_for(f, {6, 14, 15, 16, 17, 18, 19});
  const auto& truth = f.env.spec().mapping;

  // One subject plus several anchors in other banks.
  const std::uint64_t subject = pool.front();
  std::vector<std::uint64_t> anchors;
  for (std::size_t i = 1; i < pool.size() && anchors.size() < 4; ++i) {
    if (truth.bank_of(pool[i]) != truth.bank_of(subject)) {
      anchors.push_back(pool[i]);
    }
  }
  ASSERT_EQ(anchors.size(), 4u);

  measurement_plan plan(f.channel, {.max_witnesses = 2});
  for (const std::uint64_t a : anchors) {
    const sim::addr_pair pair{a, subject};
    const auto votes = plan.classify_pairs({&pair, 1}, true);
    EXPECT_EQ(votes.member.front(), 0);
  }
  EXPECT_GE(plan.stats().witnesses_evicted, 2u);
  // The two most recent anchors are still cached; the first was evicted.
  EXPECT_EQ(plan.relation(anchors[3], subject), pair_relation::cross_pile);
  EXPECT_EQ(plan.relation(anchors[2], subject), pair_relation::cross_pile);
  EXPECT_EQ(plan.relation(anchors[0], subject), pair_relation::unknown);

  // Unbounded config never evicts on the same sequence.
  pipeline_fixture g(1);
  measurement_plan unbounded(g.channel, {.max_witnesses = 0});
  for (const std::uint64_t a : anchors) {
    const sim::addr_pair pair{a, subject};
    (void)unbounded.classify_pairs({&pair, 1}, true);
  }
  EXPECT_EQ(unbounded.stats().witnesses_evicted, 0u);
  EXPECT_EQ(unbounded.relation(anchors[0], subject),
            pair_relation::cross_pile);
}

TEST(MeasurementPlan, LruEvictionOrderIsDeterministicAndSound) {
  // max_witnesses = 2 forces constant LRU churn across repeated pivot
  // scans. Which cached relation degrades back to unknown (and hence which
  // rescans pay for re-measurement) must be a pure function of the scan
  // sequence — a twin plan replaying it lands on identical verdicts,
  // stats and relations — and no cached relation may contradict the truth.
  pipeline_fixture fa(1), fb(1);
  const auto pool = pool_for(fa, {6, 14, 15, 16, 17, 18, 19});
  measurement_plan plan(fa.channel, {.max_witnesses = 2});
  measurement_plan twin(fb.channel, {.max_witnesses = 2});

  rng pivots(7);
  for (unsigned round = 0; round < 6; ++round) {
    const std::size_t p = pivots.below(pool.size());
    std::vector<std::uint64_t> partners;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i != p) partners.push_back(pool[i]);
    }
    const auto got = plan.classify_partners(pool[p], partners, default_scan());
    const auto again =
        twin.classify_partners(pool[p], partners, default_scan());
    EXPECT_EQ(got.member, again.member) << "round " << round;
    EXPECT_EQ(got.reused, again.reused) << "round " << round;
  }
  EXPECT_GT(plan.stats().witnesses_evicted, 0u);
  EXPECT_EQ(plan.stats().witnesses_evicted, twin.stats().witnesses_evicted);
  EXPECT_EQ(plan.stats().measurements_saved, twin.stats().measurements_saved);
  EXPECT_EQ(plan.stats().negatives_recorded, twin.stats().negatives_recorded);
  EXPECT_EQ(fa.env.mach().controller().measurement_count(),
            fb.env.mach().controller().measurement_count());

  const auto& truth = fa.env.spec().mapping;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size() && j < i + 8; ++j) {
      const pair_relation rel = plan.relation(pool[i], pool[j]);
      ASSERT_EQ(rel, twin.relation(pool[i], pool[j]));
      const bool same_bank = truth.bank_of(pool[i]) == truth.bank_of(pool[j]);
      if (rel == pair_relation::same_bank) {
        EXPECT_TRUE(same_bank);
      } else if (rel == pair_relation::cross_pile) {
        EXPECT_FALSE(same_bank &&
                     truth.row_of(pool[i]) != truth.row_of(pool[j]));
      }
    }
  }
}

}  // namespace
}  // namespace dramdig::core
