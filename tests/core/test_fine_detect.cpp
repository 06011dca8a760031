#include "core/fine_detect.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/coarse_detect.h"
#include "core_test_util.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;
using testing::run_state;

/// Run coarse detection, then hand the machine's true functions to the
/// fine-grained step (isolating Step 3 from Algorithm 2/3).
fine_outcome fine_with_truth(pipeline_fixture& f) {
  run_state s(f);
  const auto coarse = run_coarse_detection(s.probe, f.knowledge, f.r);
  return run_fine_detection(s.probe, f.knowledge, coarse,
                            f.env.spec().mapping.bank_functions(), f.r);
}

TEST(FineDetect, MachineNo1RecoversSharedRows) {
  pipeline_fixture f(1);
  const auto out = fine_with_truth(f);
  EXPECT_EQ(out.row_bits, f.env.spec().mapping.row_bits());
  EXPECT_EQ(out.column_bits, f.env.spec().mapping.column_bits());
  EXPECT_EQ(out.shared_row_bits, (std::vector<unsigned>{17, 18, 19}));
  EXPECT_TRUE(out.shared_column_bits.empty());
  EXPECT_TRUE(out.counts_satisfied);
}

TEST(FineDetect, MachineNo2RecoversSharedColumns) {
  pipeline_fixture f(2);
  const auto out = fine_with_truth(f);
  EXPECT_EQ(out.row_bits, f.env.spec().mapping.row_bits());
  EXPECT_EQ(out.column_bits, f.env.spec().mapping.column_bits());
  // 8,9,12,13 are the shared column bits; 7 is excluded by the
  // widest-function rule.
  EXPECT_EQ(out.shared_column_bits, (std::vector<unsigned>{8, 9, 12, 13}));
}

TEST(FineDetect, MachineNo6SharedBitsRecovered) {
  pipeline_fixture f(6);
  const auto out = fine_with_truth(f);
  EXPECT_EQ(out.row_bits, f.env.spec().mapping.row_bits());
  // Bit 7 ends up a column via the widest-function exclusion of bit 8.
  EXPECT_EQ(out.shared_column_bits, (std::vector<unsigned>{7, 9, 12, 13}));
}

TEST(FineDetect, MachineNo6RefutesPureBankCandidateWhenOverAsked) {
  // Force the refutation path: doctor the spec knowledge to demand one
  // more row bit than exists. After the four true shared rows are
  // accepted, (7,14) proposes bit 14 — a pure bank bit — and the timed
  // bank-invariant delta {7,14} measures fast (same row, same bank) and
  // refutes it.
  pipeline_fixture f(6);
  run_state s(f);
  const auto coarse = run_coarse_detection(s.probe, f.knowledge, f.r);
  domain_knowledge doctored = f.knowledge;
  doctored.expected_row_bits += 1;
  const auto out =
      run_fine_detection(s.probe, doctored, coarse,
                         f.env.spec().mapping.bank_functions(), f.r);
  EXPECT_TRUE(std::find(out.rejected_candidates.begin(),
                        out.rejected_candidates.end(),
                        14u) != out.rejected_candidates.end());
  // The surplus row can only come from the knowledge fallback, which
  // flags the result as not fully timing-verified.
  EXPECT_FALSE(out.timing_verified);
}

TEST(FineDetect, MachineNo7ColumnBitSix) {
  pipeline_fixture f(7);
  const auto out = fine_with_truth(f);
  EXPECT_EQ(out.column_bits, f.env.spec().mapping.column_bits());
  EXPECT_EQ(out.shared_column_bits, (std::vector<unsigned>{6}));
}

TEST(FineDetect, MachineNo7RefutesCandidate13WhenOverAsked) {
  // As above: with an inflated row count, (6,13) proposes bit 13 (pure
  // bank); the delta {6,13} flips a column and keeps the bank -> fast ->
  // refuted.
  pipeline_fixture f(7);
  run_state s(f);
  const auto coarse = run_coarse_detection(s.probe, f.knowledge, f.r);
  domain_knowledge doctored = f.knowledge;
  doctored.expected_row_bits += 1;
  const auto out =
      run_fine_detection(s.probe, doctored, coarse,
                         f.env.spec().mapping.bank_functions(), f.r);
  EXPECT_TRUE(std::find(out.rejected_candidates.begin(),
                        out.rejected_candidates.end(),
                        13u) != out.rejected_candidates.end());
}

TEST(FineDetect, AllMachinesEndWithSpecCounts) {
  for (int machine = 1; machine <= 9; ++machine) {
    pipeline_fixture f(machine, 31);
    const auto out = fine_with_truth(f);
    EXPECT_TRUE(out.counts_satisfied) << "No." << machine;
    EXPECT_EQ(out.row_bits, f.env.spec().mapping.row_bits())
        << "No." << machine;
    EXPECT_EQ(out.column_bits, f.env.spec().mapping.column_bits())
        << "No." << machine;
  }
}

TEST(FineDetect, RowsAndColumnsStayDisjoint) {
  for (int machine : {2, 6, 7}) {
    pipeline_fixture f(machine, 17);
    const auto out = fine_with_truth(f);
    for (unsigned b : out.row_bits) {
      EXPECT_FALSE(std::binary_search(out.column_bits.begin(),
                                      out.column_bits.end(), b))
          << "No." << machine << " bit " << b;
    }
  }
}

TEST(FineDetect, UnsolvableInvariantDeltaFallsBackToKnowledge) {
  // A candidate whose invariant system has no solution: the 1-bit function
  // {19} pins bit 19 to zero in every bank-invariant delta while the
  // candidate constraint pins it to one, so no timed probe exists. The
  // paper's knowledge fallback accepts the candidate but the outcome must
  // say so (timing_verified = false).
  pipeline_fixture f(1);
  run_state s(f);
  const auto coarse = run_coarse_detection(s.probe, f.knowledge, f.r);
  const std::vector<std::uint64_t> funcs{(1ull << 14) | (1ull << 19),
                                         1ull << 19};
  const auto out =
      run_fine_detection(s.probe, f.knowledge, coarse, funcs, f.r);
  EXPECT_FALSE(out.timing_verified);
  EXPECT_TRUE(std::find(out.shared_row_bits.begin(), out.shared_row_bits.end(),
                        19u) != out.shared_row_bits.end());
  EXPECT_TRUE(out.rejected_candidates.empty());
}

TEST(FineDetect, RequiresBankFunctions) {
  pipeline_fixture f(1);
  run_state s(f);
  const auto coarse = run_coarse_detection(s.probe, f.knowledge, f.r);
  EXPECT_THROW(
      (void)run_fine_detection(s.probe, f.knowledge, coarse, {}, f.r),
      contract_violation);
}

}  // namespace
}  // namespace dramdig::core
