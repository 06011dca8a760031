#include "os/address_space.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dramdig::os {
namespace {

struct space_fixture {
  physical_memory pm;
  address_space space;

  explicit space_fixture(std::uint64_t bytes = 1ull << 28,
                         double frag = 0.05, std::uint64_t seed = 2)
      : pm([&] {
          physical_memory_config cfg{};
          cfg.total_bytes = bytes;
          cfg.fragmentation = frag;
          return cfg;
        }(), rng(seed)),
        space(pm) {}
};

TEST(AddressSpace, MapBufferBacksEveryPage) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 20);
  EXPECT_EQ(region.byte_count(), 1ull << 20);
  EXPECT_EQ(region.page_count(), (1ull << 20) / kPageSize);
}

TEST(AddressSpace, TranslateIsPageCoherent) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 20);
  const std::uint64_t va = region.va_base() + 5 * kPageSize + 123;
  const std::uint64_t pa = region.translate(va);
  EXPECT_EQ(pa % kPageSize, 123u);
  EXPECT_TRUE(region.contains_page(pa / kPageSize));
}

TEST(AddressSpace, TranslateRejectsOutOfRange) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 16);
  EXPECT_THROW((void)region.translate(region.va_base() + (1ull << 20)),
               contract_violation);
  EXPECT_THROW((void)region.translate(region.va_base() - 1),
               contract_violation);
}

TEST(AddressSpace, ReverseFindsVirtualAddress) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 18);
  const std::uint64_t va = region.va_base() + 17 * kPageSize + 64;
  const std::uint64_t pa = region.translate(va);
  const auto back = region.reverse(pa);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, va);
}

TEST(AddressSpace, ReverseReturnsNulloptForForeignFrames) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 16);
  // The kernel-reserved frame 0 is never part of a user buffer.
  EXPECT_FALSE(region.reverse(0).has_value());
}

TEST(AddressSpace, PfnRunsAreSortedDisjointAndComplete) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 22);
  const auto& runs = region.pfn_runs();
  ASSERT_FALSE(runs.empty());
  std::uint64_t pages = runs.front().page_count;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    // Strictly ascending and disjoint: every frame appears exactly once.
    EXPECT_GE(runs[i].first_pfn, runs[i - 1].end_pfn());
    EXPECT_EQ(runs[i].pfn_prefix, runs[i - 1].pfn_prefix +
                                      runs[i - 1].page_count);
    pages += runs[i].page_count;
  }
  EXPECT_EQ(pages, region.page_count());
}

TEST(AddressSpace, PfnAtEnumeratesFramesAscending) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 20);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < region.page_count(); ++i) {
    const std::uint64_t pfn = region.pfn_at(i);
    if (i > 0) {
      EXPECT_GT(pfn, prev);
    }
    EXPECT_TRUE(region.contains_page(pfn));
    prev = pfn;
  }
}

TEST(AddressSpace, CoversRangeOnContiguousBacking) {
  space_fixture f(1ull << 28, 0.0, 3);
  const auto& region = f.space.map_buffer(1ull << 24);
  // With zero fragmentation the buffer is served in long runs; find one
  // extent and check coverage inside it.
  const auto& backing = region.backing();
  const auto widest = std::max_element(
      backing.begin(), backing.end(),
      [](const extent& a, const extent& b) {
        return a.page_count < b.page_count;
      });
  ASSERT_NE(widest, backing.end());
  EXPECT_TRUE(region.covers_range(widest->first_byte(),
                                  widest->first_byte() + widest->byte_count()));
  // One byte past the run must fail unless the next frame happens to be
  // present; probing far beyond the space definitely fails.
  EXPECT_FALSE(region.covers_range(widest->first_byte(),
                                   widest->first_byte() + (1ull << 40)));
}

TEST(AddressSpace, CoversRangeDetectsHoles) {
  space_fixture f;
  const auto& region = f.space.map_buffer(1ull << 18);
  // A range starting at an unmapped frame is not covered.
  EXPECT_FALSE(region.covers_range(0, kPageSize));
}

TEST(AddressSpace, RegionsRemainValidAcrossLaterMappings) {
  space_fixture f;
  const auto& first = f.space.map_buffer(1ull << 16);
  const std::uint64_t va = first.va_base();
  for (int i = 0; i < 20; ++i) (void)f.space.map_buffer(1ull << 16);
  // The reference taken before the loop still works (deque storage).
  EXPECT_EQ(first.va_base(), va);
  EXPECT_EQ(first.byte_count(), 1ull << 16);
}

TEST(AddressSpace, DistinctVirtualRanges) {
  space_fixture f;
  const auto& a = f.space.map_buffer(1ull << 16);
  const auto& b = f.space.map_buffer(1ull << 16);
  EXPECT_GE(b.va_base(), a.va_base() + a.byte_count());
}

}  // namespace
}  // namespace dramdig::os
