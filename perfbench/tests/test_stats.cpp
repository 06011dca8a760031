#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)perfbench::median({}), std::invalid_argument);
}

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
  // 180 jobs: p90 leaves 18 beyond, p95 only 9.
  const auto t = perfbench::tail_percentile(one_to(180));
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 162.0);
  EXPECT_EQ(t.samples, 180u);
  EXPECT_EQ(t.beyond, 18u);
}

TEST(TailPercentile, ExactlyTenBeyondQualifies) {
  const auto t = perfbench::tail_percentile(one_to(200));
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, ClimbsToP99OnLargeSamples) {
  const auto t = perfbench::tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(180);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(perfbench::tail_percentile(v).value, 162.0);
}

TEST(TailPercentile, FallsBackToMedianOnFewSamples) {
  // 39 samples: p75 would leave only 9 beyond.
  const auto t = perfbench::tail_percentile(one_to(39));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 20.0);
  EXPECT_EQ(t.samples, 39u);
  const auto p75 = perfbench::tail_percentile(one_to(40));
  EXPECT_DOUBLE_EQ(p75.percentile, 75.0);
  EXPECT_DOUBLE_EQ(p75.value, 30.0);
}

TEST(TailPercentile, ThrowsOnEmptyInput) {
  EXPECT_THROW((void)perfbench::tail_percentile({}), std::invalid_argument);
}

}  // namespace
