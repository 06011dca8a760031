#include "core/coarse_detect.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core_test_util.h"

namespace dramdig::core {
namespace {

using testing::pipeline_fixture;

bool contains(const std::vector<unsigned>& v, unsigned b) {
  return std::find(v.begin(), v.end(), b) != v.end();
}

TEST(CoarseDetect, MachineNo1Partition) {
  pipeline_fixture f(1);
  const auto res =
      run_coarse_detection(f.channel, f.buffer, f.knowledge, f.r);
  // Row-only bits 20..32 (17,18,19 are shared with bank functions).
  for (unsigned b = 20; b <= 32; ++b) EXPECT_TRUE(contains(res.row_bits, b));
  for (unsigned b : {17u, 18u, 19u}) EXPECT_FALSE(contains(res.row_bits, b));
  // Column-only bits: 0..5 by knowledge, 7..13 by timing; 6 is the channel.
  for (unsigned b = 0; b <= 13; ++b) {
    if (b == 6) {
      EXPECT_FALSE(contains(res.column_bits, b));
    } else {
      EXPECT_TRUE(contains(res.column_bits, b));
    }
  }
  // Covered: the channel bit, pure bank bits, shared rows.
  for (unsigned b : {6u, 14u, 15u, 16u, 17u, 18u, 19u}) {
    EXPECT_TRUE(contains(res.bank_bits, b)) << b;
  }
  EXPECT_EQ(res.bank_bits.size(), 7u);
  EXPECT_TRUE(res.untestable_bits.empty());
}

TEST(CoarseDetect, MachineNo2SharedColumnsStayCovered) {
  pipeline_fixture f(2);
  const auto res =
      run_coarse_detection(f.channel, f.buffer, f.knowledge, f.r);
  // 8,9,12,13 feed the wide channel function: not detectable as columns.
  for (unsigned b : {8u, 9u, 12u, 13u}) {
    EXPECT_FALSE(contains(res.column_bits, b)) << b;
    EXPECT_TRUE(contains(res.bank_bits, b)) << b;
  }
  // 10,11 are plain columns.
  EXPECT_TRUE(contains(res.column_bits, 10));
  EXPECT_TRUE(contains(res.column_bits, 11));
  // Shared rows 18..21 covered; 22..32 detected.
  for (unsigned b = 18; b <= 21; ++b) EXPECT_TRUE(contains(res.bank_bits, b));
  for (unsigned b = 22; b <= 32; ++b) EXPECT_TRUE(contains(res.row_bits, b));
}

TEST(CoarseDetect, ClassesAreDisjointAndCoverProbedBits) {
  for (int machine : {1, 4, 6, 8}) {
    pipeline_fixture f(machine);
    const auto res =
        run_coarse_detection(f.channel, f.buffer, f.knowledge, f.r);
    std::vector<unsigned> all;
    all.insert(all.end(), res.row_bits.begin(), res.row_bits.end());
    all.insert(all.end(), res.column_bits.begin(), res.column_bits.end());
    all.insert(all.end(), res.bank_bits.begin(), res.bank_bits.end());
    all.insert(all.end(), res.untestable_bits.begin(),
               res.untestable_bits.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << "machine " << machine << ": classes overlap";
    EXPECT_EQ(all.size(), f.knowledge.address_bits)
        << "machine " << machine << ": bits unaccounted";
  }
}

TEST(CoarseDetect, DeterministicAcrossNoiseSeeds) {
  const auto baseline = [] {
    pipeline_fixture f(3, 100);
    return run_coarse_detection(f.channel, f.buffer, f.knowledge, f.r);
  }();
  for (std::uint64_t seed : {101, 102, 103}) {
    pipeline_fixture f(3, seed);
    const auto res =
        run_coarse_detection(f.channel, f.buffer, f.knowledge, f.r);
    EXPECT_EQ(res.row_bits, baseline.row_bits) << "seed " << seed;
    EXPECT_EQ(res.column_bits, baseline.column_bits) << "seed " << seed;
    EXPECT_EQ(res.bank_bits, baseline.bank_bits) << "seed " << seed;
  }
}

TEST(CoarseDetect, UntestableBitsAreReportedNotClassified) {
  // Bits above installed memory can never find a backed partner page, so
  // every vote pick fails and the bit lands in untestable_bits.
  pipeline_fixture f(1);
  domain_knowledge doctored = f.knowledge;
  const unsigned true_bits = f.knowledge.address_bits;
  doctored.address_bits = true_bits + 2;
  const auto res = run_coarse_detection(f.channel, f.buffer, doctored, f.r);
  EXPECT_EQ(res.untestable_bits,
            (std::vector<unsigned>{true_bits, true_bits + 1}));
  // The real bits still classify exactly as without the doctoring.
  for (unsigned b = 20; b <= 32; ++b) EXPECT_TRUE(contains(res.row_bits, b));
  EXPECT_EQ(res.bank_bits.size(), 7u);
}

TEST(CoarseDetect, NoRowBitsIsAFailureReturnNotACrash) {
  // Shrink the probed range below the lowest row-only bit: every probed
  // delta is a column or bank bit, the row pass finds nothing, and the
  // failure contract is "empty row_bits, the probed remainder in
  // bank_bits, no column knowledge applied".
  pipeline_fixture f(1);
  domain_knowledge doctored = f.knowledge;
  doctored.address_bits = 17;  // rows start at 17 on machine No.1
  const auto res = run_coarse_detection(f.channel, f.buffer, doctored, f.r);
  EXPECT_TRUE(res.row_bits.empty());
  EXPECT_EQ(res.bank_bits.size(), 11u);  // bits 6..16
  EXPECT_TRUE(res.column_bits.empty());
}

TEST(CoarseDetect, WorksOnNoisyMachine) {
  // Machine No.7 has the worst timing quality in the fleet; the voted,
  // median-filtered coarse pass must still classify correctly.
  pipeline_fixture f(7, 55);
  const auto res =
      run_coarse_detection(f.channel, f.buffer, f.knowledge, f.r);
  for (unsigned b = 18; b <= 31; ++b) EXPECT_TRUE(contains(res.row_bits, b));
  for (unsigned b : {6u, 13u, 14u, 15u, 16u, 17u}) {
    EXPECT_TRUE(contains(res.bank_bits, b)) << b;
  }
}

}  // namespace
}  // namespace dramdig::core
