#include "os/physical_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <set>

#include "util/rng.h"

namespace dramdig::os {
namespace {

physical_memory make(std::uint64_t bytes, double frag = 0.1,
                     std::uint64_t seed = 1) {
  physical_memory_config cfg{};
  cfg.total_bytes = bytes;
  cfg.fragmentation = frag;
  return physical_memory(cfg, rng(seed));
}

TEST(PhysicalMemory, ReservesKernelMemory) {
  auto pm = make(1ull << 30);
  EXPECT_LT(pm.free_bytes(), 1ull << 30);
  EXPECT_GT(pm.free_bytes(), (1ull << 30) * 9 / 10);
}

TEST(PhysicalMemory, AllocateYieldsRequestedPageCount) {
  auto pm = make(1ull << 30);
  const auto extents = pm.allocate(10 * kPageSize);
  std::uint64_t pages = 0;
  for (const auto& e : extents) pages += e.page_count;
  EXPECT_EQ(pages, 10u);
}

TEST(PhysicalMemory, AllocateRoundsUpPartialPages) {
  auto pm = make(1ull << 30);
  const auto extents = pm.allocate(kPageSize + 1);
  std::uint64_t pages = 0;
  for (const auto& e : extents) pages += e.page_count;
  EXPECT_EQ(pages, 2u);
}

TEST(PhysicalMemory, AllocationsDoNotOverlap) {
  auto pm = make(1ull << 28);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 16; ++i) {
    for (const auto& e : pm.allocate(1ull << 20)) {
      for (std::uint64_t p = 0; p < e.page_count; ++p) {
        EXPECT_TRUE(seen.insert(e.first_pfn + p).second)
            << "frame handed out twice";
      }
    }
  }
}

TEST(PhysicalMemory, LowFragmentationYieldsLongRuns) {
  auto pm = make(8ull << 30, 0.05, 3);
  const auto extents = pm.allocate(1ull << 30);
  std::uint64_t longest = 0;
  for (const auto& e : extents) longest = std::max(longest, e.page_count);
  // Algorithm 1 needs ~2^(b_max+1) contiguous bytes; 8 MiB = 2048 pages.
  EXPECT_GE(longest, 4096u);
}

TEST(PhysicalMemory, HighFragmentationBreaksRuns) {
  auto low = make(2ull << 30, 0.02, 4);
  auto high = make(2ull << 30, 0.9, 4);
  auto longest_of = [](const std::vector<extent>& es) {
    std::uint64_t l = 0;
    for (const auto& e : es) l = std::max(l, e.page_count);
    return l;
  };
  EXPECT_GT(longest_of(low.allocate(1ull << 29)),
            4 * longest_of(high.allocate(1ull << 29)));
}

TEST(PhysicalMemory, ExhaustionThrowsBadAlloc) {
  auto pm = make(1ull << 26);  // 64 MiB
  EXPECT_THROW((void)pm.allocate(1ull << 30), std::bad_alloc);
}

TEST(PhysicalMemory, ExhaustionRollsBackPartialGrab) {
  auto pm = make(1ull << 26);
  const std::uint64_t before = pm.free_bytes();
  EXPECT_THROW((void)pm.allocate(1ull << 30), std::bad_alloc);
  EXPECT_EQ(pm.free_bytes(), before);
}

TEST(PhysicalMemory, FreeReturnsMemory) {
  auto pm = make(1ull << 28);
  const std::uint64_t before = pm.free_bytes();
  const auto extents = pm.allocate(1ull << 24);
  EXPECT_LT(pm.free_bytes(), before);
  pm.free(extents);
  EXPECT_EQ(pm.free_bytes(), before);
}

TEST(PhysicalMemory, FreeCoalescesSoReallocationSucceeds) {
  auto pm = make(1ull << 27, 0.0, 9);
  for (int round = 0; round < 5; ++round) {
    const auto a = pm.allocate(1ull << 26);
    pm.free(a);
  }
  // If coalescing failed the free list would splinter and eventually an
  // allocation of the same size would fail.
  const auto final_alloc = pm.allocate(1ull << 26);
  EXPECT_FALSE(final_alloc.empty());
}

TEST(PhysicalMemory, RejectsBadConfig) {
  physical_memory_config cfg{};
  cfg.total_bytes = 12345;  // not page aligned
  EXPECT_THROW(physical_memory(cfg, rng(1)), contract_violation);
  cfg.total_bytes = 1ull << 30;
  cfg.fragmentation = 1.5;
  EXPECT_THROW(physical_memory(cfg, rng(1)), contract_violation);
}

TEST(PhysicalMemory, DeterministicPerSeed) {
  auto a = make(1ull << 28, 0.3, 11);
  auto b = make(1ull << 28, 0.3, 11);
  const auto ea = a.allocate(1ull << 24);
  const auto eb = b.allocate(1ull << 24);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].first_pfn, eb[i].first_pfn);
    EXPECT_EQ(ea[i].page_count, eb[i].page_count);
  }
}

}  // namespace
}  // namespace dramdig::os
