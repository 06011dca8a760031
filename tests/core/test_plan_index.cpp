#include "core/plan_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace dramdig::core {
namespace {

/// Pool-shaped addresses: select_addresses varies only the candidate
/// bank bits, so a pool's addresses share every bit below the lowest
/// candidate bit (b_min). Here b_min = 13: a fixed base plus multiples of
/// 1 << 13.
constexpr std::uint64_t kBase = 0x1'4000'0a40ull;
constexpr unsigned kStride = 13;
constexpr std::size_t kCount = 4096;

std::uint64_t pool_addr(std::size_t k) {
  return kBase + (static_cast<std::uint64_t>(k) << kStride);
}

/// The k-th test pair, canonically ordered (a < b) like the plan's keys.
std::pair<std::uint64_t, std::uint64_t> pool_pair(std::size_t k) {
  return {pool_addr(k), pool_addr(kCount + (k * 37 + 11) % kCount)};
}

// The tables keep only the low bits of a hash. A random 64-bit hash
// puts 4096 keys on about 2590 distinct 12-bit values; a hash whose low
// bits ignore the high input bits collapses them onto a handful, and
// every probe then walks a long cluster.
constexpr std::uint64_t kLow12 = (1u << 12) - 1;
constexpr std::size_t kMinDistinct = 2048;

TEST(PlanIndex, PairHashSpreadsPoolShapedPairsOverLowBits) {
  std::set<std::uint64_t> low;
  for (std::size_t k = 0; k < kCount; ++k) {
    const auto [a, b] = pool_pair(k);
    low.insert(plan_index::hash_pair(a, b) & kLow12);
  }
  EXPECT_GE(low.size(), kMinDistinct);
}

TEST(PlanIndex, AddressHashSpreadsPoolShapedAddressesOverLowBits) {
  std::set<std::uint64_t> low;
  for (std::size_t k = 0; k < kCount; ++k) {
    low.insert(plan_index::hash_addr(pool_addr(k)) & kLow12);
  }
  EXPECT_GE(low.size(), kMinDistinct);
}

TEST(PlanIndex, MemoRoundTripsAcrossGrowth) {
  // 4096 pairs grow the table from its 64 minimum slots many times over;
  // every inserted pair stays findable and no other pair appears.
  plan_index idx;
  for (std::size_t k = 0; k < kCount; ++k) {
    const auto [a, b] = pool_pair(k);
    EXPECT_FALSE(idx.memo_contains(a, b));
    idx.memo_insert(a, b);
  }
  EXPECT_EQ(idx.memo_size(), kCount);
  for (std::size_t k = 0; k < kCount; ++k) {
    const auto [a, b] = pool_pair(k);
    EXPECT_TRUE(idx.memo_contains(a, b)) << k;
    // Keys are ordered pairs: the plan canonicalizes before asking.
    EXPECT_FALSE(idx.memo_contains(b, a)) << k;
  }
  EXPECT_FALSE(idx.memo_contains(pool_addr(0), pool_addr(1)));

  idx.clear();
  EXPECT_EQ(idx.memo_size(), 0u);
  EXPECT_FALSE(idx.memo_contains(pool_pair(0).first, pool_pair(0).second));
}

TEST(PlanIndex, DuplicateMemoInsertsAreNoOps) {
  plan_index idx;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < 100; ++k) {
      const auto [a, b] = pool_pair(k);
      idx.memo_insert(a, b);
    }
    EXPECT_EQ(idx.memo_size(), 100u) << "round " << round;
  }
  for (std::size_t k = 0; k < 100; ++k) {
    const auto [a, b] = pool_pair(k);
    EXPECT_TRUE(idx.memo_contains(a, b)) << k;
  }
}

}  // namespace
}  // namespace dramdig::core
