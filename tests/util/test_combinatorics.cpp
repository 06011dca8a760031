#include "util/combinatorics.h"

#include <gtest/gtest.h>

#include <set>

namespace dramdig {
namespace {

TEST(Combinatorics, ChooseSmallValues) {
  EXPECT_EQ(choose(4, 2), 6u);
  EXPECT_EQ(choose(5, 0), 1u);
  EXPECT_EQ(choose(5, 5), 1u);
  EXPECT_EQ(choose(3, 4), 0u);
  EXPECT_EQ(choose(28, 7), 1184040u);
}

TEST(Combinatorics, EnumeratesAllSingleBits) {
  std::vector<std::uint64_t> masks;
  for_each_bit_combination({3, 5, 9}, 1, 1, [&](std::uint64_t m) {
    masks.push_back(m);
    return true;
  });
  EXPECT_EQ(masks, (std::vector<std::uint64_t>{0b1000, 0b100000, 0b1000000000}));
}

TEST(Combinatorics, CountMatchesChoose) {
  const std::vector<unsigned> pos{1, 2, 3, 4, 5, 6, 7};
  for (unsigned k = 1; k <= 7; ++k) {
    std::size_t n = 0;
    for_each_bit_combination(pos, k, k, [&](std::uint64_t) {
      ++n;
      return true;
    });
    EXPECT_EQ(n, choose(7, k)) << "k=" << k;
  }
}

TEST(Combinatorics, MasksAreDistinctAndHaveRightPopcount) {
  const std::vector<unsigned> pos{0, 2, 4, 6, 8, 10};
  std::set<std::uint64_t> seen;
  for_each_bit_combination(pos, 2, 3, [&](std::uint64_t m) {
    EXPECT_TRUE(seen.insert(m).second) << "duplicate mask";
    const int pc = std::popcount(m);
    EXPECT_TRUE(pc == 2 || pc == 3);
    return true;
  });
  EXPECT_EQ(seen.size(), choose(6, 2) + choose(6, 3));
}

TEST(Combinatorics, OrderIsWidthAscending) {
  // Algorithm 3's priority: fewer-bit masks come first.
  std::vector<int> widths;
  for_each_bit_combination({1, 2, 3}, 1, 3, [&](std::uint64_t m) {
    widths.push_back(std::popcount(m));
    return true;
  });
  EXPECT_TRUE(std::is_sorted(widths.begin(), widths.end()));
}

TEST(Combinatorics, EarlyStopHonored) {
  std::size_t visits = 0;
  for_each_bit_combination({1, 2, 3, 4}, 1, 4, [&](std::uint64_t) {
    ++visits;
    return visits < 3;
  });
  EXPECT_EQ(visits, 3u);
}

TEST(Combinatorics, MaxBitsClampedToPositionCount) {
  std::size_t visits = 0;
  for_each_bit_combination({1, 2}, 1, 99, [&](std::uint64_t) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 3u);  // C(2,1) + C(2,2)
}

}  // namespace
}  // namespace dramdig
