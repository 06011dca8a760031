#include "core/plan_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace dramdig::core {
namespace {

using rec_id = plan_index::rec_id;

/// Pool-shaped addresses: select_addresses varies only the candidate
/// bank bits, so a pool's addresses share every bit below the lowest
/// candidate bit (b_min). Here b_min = 13: a fixed base plus multiples of
/// 1 << 13.
constexpr std::uint64_t kBase = 0x1'4000'0a40ull;
constexpr unsigned kStride = 13;
constexpr std::size_t kCount = 4096;
constexpr std::size_t kBanks = 16;

std::uint64_t pool_addr(std::size_t k) {
  return kBase + (static_cast<std::uint64_t>(k) << kStride);
}

/// The memo keys a partition of a kCount-address pool produces: records
/// are numbered in the order the scans first meet the pool, and every
/// strict positive pairs a class's founder (the first record of its bank)
/// with one member. Banks interleave in the pool, as XOR-mapped banks do.
std::vector<std::uint64_t> scan_shaped_keys() {
  std::vector<std::uint64_t> keys;
  for (std::size_t k = kBanks; k < kCount; ++k) {
    const auto founder = static_cast<rec_id>(k % kBanks);
    keys.push_back(plan_index::memo_key(founder, static_cast<rec_id>(k)));
  }
  return keys;
}

/// Mean probe length of inserting keys at home slots `homes` into a
/// linear-probing table of `slots` (a power of two) — the cost of every
/// later lookup of those keys.
double mean_probe_length(const std::vector<std::size_t>& homes,
                         std::size_t slots) {
  std::vector<char> used(slots, 0);
  std::size_t probes = 0;
  for (const std::size_t home : homes) {
    std::size_t at = home;
    ++probes;
    while (used[at]) {
      at = (at + 1) & (slots - 1);
      ++probes;
    }
    used[at] = 1;
  }
  return static_cast<double>(probes) / static_cast<double>(homes.size());
}

// Both tables keep only the low bits of a hash. A random 64-bit hash puts 4096 keys on about 2590
// distinct 12-bit values and, at the half load reserve() sizes for, probes
// about 1.5 slots per key; a hash whose kept bits ignore some input bits
// collapses the keys onto a handful of values and every probe walks a
// long cluster.
constexpr std::uint64_t kLow12 = (1u << 12) - 1;
constexpr std::size_t kMinDistinct = 2048;
constexpr double kMaxMeanProbes = 2.0;
constexpr std::size_t kSlots = 2 * kCount;  // what reserve(kCount) sizes

TEST(PlanIndex, PairHashSpreadsPoolShapedPairsOverLowBits) {
  const std::vector<std::uint64_t> keys = scan_shaped_keys();
  std::set<std::uint64_t> low;
  std::vector<std::size_t> homes;
  for (const std::uint64_t key : keys) {
    low.insert(plan_index::hash_key(key) & kLow12);
    homes.push_back(plan_index::hash_key(key) & (kSlots - 1));
  }
  EXPECT_GE(low.size(), kMinDistinct);
  EXPECT_LE(mean_probe_length(homes, kSlots), kMaxMeanProbes);
}

TEST(PlanIndex, AddressHashSpreadsPoolShapedAddressesOverLowBits) {
  std::set<std::uint64_t> low;
  std::vector<std::size_t> homes;
  for (std::size_t k = 0; k < kCount; ++k) {
    low.insert(plan_index::hash_addr(pool_addr(k)) & kLow12);
    homes.push_back(plan_index::hash_addr(pool_addr(k)) & (kSlots - 1));
  }
  EXPECT_GE(low.size(), kMinDistinct);
  EXPECT_LE(mean_probe_length(homes, kSlots), kMaxMeanProbes);
}

TEST(PlanIndex, MemoRoundTripsAcrossGrowth) {
  // kCount records and a scan's worth of pairs grow both tables from their
  // 64 minimum slots many times over; every record keeps its id, every
  // inserted pair stays findable in either order and no other pair
  // appears.
  plan_index idx;
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(idx.find(pool_addr(k)), plan_index::none);
    EXPECT_EQ(idx.find_or_create(pool_addr(k)), k);
  }
  for (std::size_t k = kBanks; k < kCount; ++k) {
    const auto founder = static_cast<rec_id>(k % kBanks);
    EXPECT_FALSE(idx.memo_contains(founder, static_cast<rec_id>(k)));
    idx.memo_insert(static_cast<rec_id>(k), founder);
  }
  EXPECT_EQ(idx.size(), kCount);
  EXPECT_EQ(idx.memo_size(), kCount - kBanks);
  for (std::size_t k = 0; k < kCount; ++k) {
    ASSERT_EQ(idx.find(pool_addr(k)), k);
    EXPECT_EQ(idx.addr(static_cast<rec_id>(k)), pool_addr(k));
  }
  for (std::size_t k = kBanks; k < kCount; ++k) {
    const auto founder = static_cast<rec_id>(k % kBanks);
    EXPECT_TRUE(idx.memo_contains(founder, static_cast<rec_id>(k))) << k;
    EXPECT_TRUE(idx.memo_contains(static_cast<rec_id>(k), founder)) << k;
  }
  EXPECT_FALSE(idx.memo_contains(0, 1));
  EXPECT_FALSE(idx.memo_contains(kBanks, kBanks + 1));

  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.memo_size(), 0u);
  EXPECT_EQ(idx.find(pool_addr(0)), plan_index::none);
  EXPECT_FALSE(idx.memo_contains(0, kBanks));
}

TEST(PlanIndex, DuplicateMemoInsertsAreNoOps) {
  plan_index idx;
  for (int round = 0; round < 3; ++round) {
    for (rec_id k = 1; k <= 100; ++k) {
      // Both orders name the same unordered pair.
      idx.memo_insert(round % 2 == 0 ? 0 : k, round % 2 == 0 ? k : 0);
    }
    EXPECT_EQ(idx.memo_size(), 100u) << "round " << round;
  }
  for (rec_id k = 1; k <= 100; ++k) {
    EXPECT_TRUE(idx.memo_contains(0, k)) << k;
  }
  // A pair of one record is a key like any other.
  idx.memo_insert(7, 7);
  EXPECT_TRUE(idx.memo_contains(7, 7));
  EXPECT_EQ(idx.memo_size(), 101u);
}

TEST(PlanIndex, ReserveChangesCapacityOnly) {
  // Two indexes fed the same records, witnesses and pairs, one reserved
  // for the pool half way through: ids, lists and answers are identical,
  // and only the slot capacities differ.
  plan_index plain, reserved;
  const auto feed = [](plan_index& idx, std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      const rec_id rec = idx.find_or_create(pool_addr(k));
      if (k >= kBanks) {
        const auto founder = static_cast<rec_id>(k % kBanks);
        if (k % 3 == 0) {
          idx.memo_insert(founder, rec);
        } else {
          idx.witness_push(rec, founder);
        }
      }
    }
  };
  feed(plain, 0, kCount / 2);
  feed(reserved, 0, kCount / 2);
  const std::size_t slots_before = reserved.slot_capacity();
  const std::size_t memo_before = reserved.memo_capacity();
  reserved.reserve(kCount);
  EXPECT_GT(reserved.slot_capacity(), slots_before);
  EXPECT_GT(reserved.memo_capacity(), memo_before);
  EXPECT_EQ(reserved.size(), plain.size());
  EXPECT_EQ(reserved.memo_size(), plain.memo_size());
  // A reserve below what is held never shrinks a table.
  const std::size_t slots_reserved = reserved.slot_capacity();
  reserved.reserve(1);
  EXPECT_EQ(reserved.slot_capacity(), slots_reserved);

  feed(plain, kCount / 2, kCount);
  feed(reserved, kCount / 2, kCount);
  // The reserved tables held the whole pool without growing again.
  EXPECT_EQ(reserved.slot_capacity(), slots_reserved);
  EXPECT_EQ(reserved.size(), plain.size());
  EXPECT_EQ(reserved.memo_size(), plain.memo_size());
  for (std::size_t k = 0; k < kCount; ++k) {
    const rec_id rec = plain.find(pool_addr(k));
    ASSERT_EQ(reserved.find(pool_addr(k)), rec);
    const auto a = plain.witnesses(rec);
    const auto b = reserved.witnesses(rec);
    EXPECT_EQ(std::vector<rec_id>(a.begin(), a.end()),
              std::vector<rec_id>(b.begin(), b.end()));
    const auto founder = static_cast<rec_id>(k % kBanks);
    EXPECT_EQ(reserved.memo_contains(founder, rec),
              plain.memo_contains(founder, rec));
    EXPECT_EQ(reserved.witnessed(rec), plain.witnessed(rec));
  }
}

TEST(PlanIndex, WitnessListsKeepInsertionOrderAcrossRelocation) {
  // Lists relocate to the arena tail as they outgrow their slices while
  // other lists grow in between; insertion order and the witness role
  // survive every move.
  plan_index idx;
  const rec_id a = idx.find_or_create(pool_addr(0));
  const rec_id b = idx.find_or_create(pool_addr(1));
  std::vector<rec_id> want_a, want_b;
  for (rec_id w = 2; w < 40; ++w) {
    (void)idx.find_or_create(pool_addr(w));
    idx.witness_push(a, w);
    want_a.push_back(w);
    if (w % 2 == 0) {
      idx.witness_push(b, w);
      want_b.push_back(w);
    }
  }
  const auto got_a = idx.witnesses(a);
  const auto got_b = idx.witnesses(b);
  EXPECT_EQ(std::vector<rec_id>(got_a.begin(), got_a.end()), want_a);
  EXPECT_EQ(std::vector<rec_id>(got_b.begin(), got_b.end()), want_b);
  EXPECT_TRUE(idx.witnessed(2));
  EXPECT_FALSE(idx.witnessed(a));
  EXPECT_EQ(idx.node(a), plan_index::none);
}

}  // namespace
}  // namespace dramdig::core
