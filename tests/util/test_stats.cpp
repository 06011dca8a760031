#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/expect.h"

namespace dramdig {
namespace {

TEST(Stats, MeanOfConstants) {
  EXPECT_DOUBLE_EQ(mean({5, 5, 5}), 5.0);
}

TEST(Stats, MeanOfMixedValues) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
}

TEST(Stats, MeanRejectsEmpty) {
  EXPECT_THROW((void)mean({}), contract_violation);
}

TEST(Stats, VarianceOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(variance({3, 3, 3, 3}), 0.0);
}

TEST(Stats, VariancePopulationFormula) {
  EXPECT_DOUBLE_EQ(variance({1, 3}), 1.0);
}

TEST(Stats, MedianOddCount) {
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5.0);
}

TEST(Stats, MedianEvenCountAverages) {
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, MedianSingle) {
  EXPECT_DOUBLE_EQ(median({42}), 42.0);
}

TEST(Stats, MedianRobustToOutlier) {
  // The reason the timing channel medians its samples: one contaminated
  // value does not move the median.
  EXPECT_DOUBLE_EQ(median({165, 166, 164, 165, 560}), 165.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
}

TEST(Stats, PercentileRejectsOutOfRange) {
  EXPECT_THROW((void)percentile({1.0}, 101), contract_violation);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3, -1, 7};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

}  // namespace
}  // namespace dramdig
