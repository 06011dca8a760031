// The designed-experiment engine's acceptance pins: coarse + fine driven by
// the engine recover every preset's true row/column bits, also under noisy
// seeds; early termination and round batching show in the stats; and
// probe_pairs reuses the plan's evidence.
#include "core/bit_probe.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/coarse_detect.h"
#include "core/fine_detect.h"
#include "core_test_util.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;

struct probed_run {
  coarse_result coarse;
  fine_outcome fine;
  probe_stats stats;
};

/// Coarse + fine (with the machine's true functions, isolating the probed
/// phases from partition) on a fresh fixture.
probed_run run_probed_phases(int machine, std::uint64_t seed) {
  pipeline_fixture f(machine, seed);
  measurement_plan plan(f.channel);
  bit_probe_engine engine(plan, f.buffer);
  probed_run out;
  out.coarse = run_coarse_detection(engine, f.knowledge, f.r);
  out.fine = run_fine_detection(engine, f.knowledge, out.coarse,
                                f.env.spec().mapping.bank_functions(), f.r);
  out.stats = engine.stats();
  return out;
}

void expect_true_classification(const probed_run& run, int machine,
                                const std::string& label) {
  const dram::address_mapping& truth = dram::machine_by_number(machine).mapping;
  std::uint64_t function_bits = 0;
  for (const std::uint64_t f : truth.bank_functions()) function_bits |= f;
  // Coarse rows are the row bits no bank function touches; fine adds the
  // shared ones and must land on the complete truth.
  for (const unsigned b : run.coarse.row_bits) {
    EXPECT_TRUE(std::find(truth.row_bits().begin(), truth.row_bits().end(),
                          b) != truth.row_bits().end())
        << label << ": bit " << b << " is not a row bit";
    EXPECT_EQ((function_bits >> b) & 1u, 0u) << label << ": bit " << b;
  }
  EXPECT_EQ(run.fine.row_bits, truth.row_bits()) << label;
  EXPECT_EQ(run.fine.column_bits, truth.column_bits()) << label;
  EXPECT_TRUE(run.fine.counts_satisfied) << label;
}

TEST(BitProbe, RecoversTrueRowAndColumnBitsOnEveryPreset) {
  for (int machine = 1; machine <= 9; ++machine) {
    expect_true_classification(run_probed_phases(machine, 7), machine,
                               "No." + std::to_string(machine));
  }
}

TEST(BitProbe, RecoversTrueRowAndColumnBitsOnNoisySeeds) {
  // The noisy mobile units, across randomized seeds: single-sample
  // negatives plus strict-verified positives must still classify every
  // bit correctly.
  for (int machine : {3, 7}) {
    for (std::uint64_t seed : {11u, 23u, 55u, 101u}) {
      expect_true_classification(
          run_probed_phases(machine, seed), machine,
          "No." + std::to_string(machine) + " seed " + std::to_string(seed));
    }
  }
}

TEST(BitProbe, EarlyTerminationAndRoundBatchingShowInStats) {
  const probed_run designed = run_probed_phases(1, 7);
  // Unanimous experiments stop after ceil(votes/2) votes, so the engine
  // must save a large share of a fixed 7-votes-per-bit budget...
  EXPECT_GT(designed.stats.votes_saved, designed.stats.experiments);
  EXPECT_LT(designed.stats.votes_cast, designed.stats.experiments * 7);
  // ...and the whole coarse phase collapses into a handful of cross-bit
  // rounds (one batch per bit would be ~27 for the row pass alone).
  EXPECT_LE(designed.stats.rounds,
            7u * 2u + designed.fine.shared_row_bits.size() * 3u +
                designed.fine.rejected_candidates.size() * 3u);
  // Shared bases serve a meaningful share of the votes.
  EXPECT_GT(designed.stats.shared_base_votes, designed.stats.votes_cast / 4);
}

TEST(BitProbe, UntestableDeltaReturnsNullopt) {
  pipeline_fixture f(4, 7);
  measurement_plan plan(f.channel);
  bit_probe_engine engine(plan, f.buffer);
  // A delta far above installed memory: no partner page can ever back it.
  const std::uint64_t delta = std::uint64_t{1} << 40;
  EXPECT_EQ(engine.run_one(delta, probe_config{}, f.r), std::nullopt);
}

TEST(BitProbe, ProbePairsAnswersRepeatsFromThePlanCache) {
  pipeline_fixture f(1, 7);
  measurement_plan plan(f.channel);
  std::vector<sim::addr_pair> pairs;
  for (unsigned b = 20; b < 26; ++b) {
    const auto pair =
        pick_pair_with_delta(f.buffer, std::uint64_t{1} << b, f.r, 256);
    ASSERT_TRUE(pair.has_value());
    pairs.push_back(*pair);
  }
  const auto first = plan.probe_pairs(pairs);
  EXPECT_EQ(first.reused, 0u);
  const std::uint64_t measured =
      f.env.mach().controller().measurement_count();
  const auto second = plan.probe_pairs(pairs);
  EXPECT_EQ(second.sbdr, first.sbdr);
  EXPECT_EQ(second.reused, pairs.size());
  EXPECT_EQ(f.env.mach().controller().measurement_count(), measured)
      << "repeat probes must not touch the controller";
}

TEST(BitProbe, ProbePairsMatchesStrictVerdicts) {
  // The designed vote's adaptive economics (single-sample negatives,
  // strict-verified positives) must land on the same verdicts as the
  // all-strict predicate, pair for pair.
  pipeline_fixture f(7, 31);
  measurement_plan probe_plan(f.channel);
  std::vector<sim::addr_pair> pairs;
  for (unsigned b = f.knowledge.min_probe_bit; b < f.knowledge.address_bits;
       ++b) {
    const auto pair =
        pick_pair_with_delta(f.buffer, std::uint64_t{1} << b, f.r, 256);
    if (pair) pairs.push_back(*pair);
  }
  ASSERT_GT(pairs.size(), 10u);
  const auto probed = probe_plan.probe_pairs(pairs);

  pipeline_fixture g(7, 31);
  // Same physical pairs measured strictly on an identical twin machine.
  const std::vector<char> strict = g.channel.is_sbdr_strict_batch(pairs);
  EXPECT_EQ(probed.sbdr, strict);
}

}  // namespace
}  // namespace dramdig::core
