#include "os/address_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "dram/presets.h"
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

// ---------------------------------------------------------------------------
// Frame index: every O(1) lookup agrees with a walk over the backing.

constexpr std::uint64_t kVaBase = 0x7f0000000000ull;

/// The i-th smallest backing frame, by walking the runs ascending.
std::uint64_t walk_pfn_at(const mapping_region& region, std::uint64_t i) {
  for (const pfn_run& run : region.pfn_runs()) {
    if (i < run.page_count) return run.first_pfn + i;
    i -= run.page_count;
  }
  ADD_FAILURE() << "index past the last run";
  return 0;
}

/// The VA backing frame `pfn`, by walking the backing in VA order.
std::optional<std::uint64_t> walk_reverse(const std::vector<extent>& backing,
                                          std::uint64_t pfn) {
  std::uint64_t page = 0;
  for (const extent& e : backing) {
    if (pfn >= e.first_pfn && pfn < e.first_pfn + e.page_count) {
      return kVaBase + (page + pfn - e.first_pfn) * kPageSize;
    }
    page += e.page_count;
  }
  return std::nullopt;
}

/// Shapes the index must handle: one run, one-page runs out of order, and
/// uneven runs whose page count is no multiple of a power of two.
std::vector<std::vector<extent>> small_backings() {
  std::vector<std::vector<extent>> out;
  out.push_back({{100, 37}});
  std::vector<extent> singles;
  for (std::uint64_t k = 0; k < 50; ++k) singles.push_back({(k * 37) % 50 * 3 + 5, 1});
  out.push_back(singles);
  std::vector<extent> uneven;
  rng r(3);
  std::uint64_t at = 1;
  for (int k = 0; k < 40; ++k) {
    const std::uint64_t count = 1 + r.below(60);
    uneven.push_back({at, count});
    at += count + r.below(3);  // adjacent runs too
  }
  std::shuffle(uneven.begin(), uneven.end(), r.engine());
  out.push_back(uneven);
  return out;
}

TEST(FrameIndex, PfnAtMatchesRunWalkAtEveryIndex) {
  for (const auto& backing : small_backings()) {
    const mapping_region region(kVaBase, backing);
    for (std::uint64_t i = 0; i < region.page_count(); ++i) {
      ASSERT_EQ(region.pfn_at(i), walk_pfn_at(region, i))
          << backing.size() << " runs, index " << i;
    }
    EXPECT_THROW((void)region.pfn_at(region.page_count()), contract_violation);
  }
}

TEST(FrameIndex, PfnAtMatchesRunWalkOnAMachineSizedBuffer) {
  physical_memory_config cfg{};
  cfg.total_bytes = dram::machine_by_number(6).memory_bytes;
  physical_memory pm(cfg, rng(6));
  address_space space(pm);
  const mapping_region& region =
      space.map_buffer(cfg.total_bytes / 100 * 55 / kPageSize * kPageSize);
  ASSERT_GT(region.pfn_runs().size(), 100u);
  rng r(60);
  for (int k = 0; k < 100'000; ++k) {
    const std::uint64_t i = r.below(region.page_count());
    ASSERT_EQ(region.pfn_at(i), walk_pfn_at(region, i)) << "index " << i;
  }
}

TEST(FrameIndex, FrameQueriesMatchBackingWalkAtRunEdges) {
  for (const auto& backing : small_backings()) {
    const mapping_region region(kVaBase, backing);
    std::vector<std::uint64_t> probes = {0, 1};
    for (const extent& e : backing) {
      for (const std::uint64_t at : {e.first_pfn, e.first_pfn + e.page_count}) {
        probes.insert(probes.end(), {at - 1, at, at + 1});
      }
    }
    const std::uint64_t end = region.pfn_runs().back().end_pfn();
    probes.insert(probes.end(), {end + 1, end + 1000, std::uint64_t{1} << 40});
    for (const std::uint64_t pfn : probes) {
      const auto want = walk_reverse(backing, pfn);
      EXPECT_EQ(region.contains_page(pfn), want.has_value()) << pfn;
      EXPECT_EQ(region.reverse(pfn * kPageSize + 64),
                want ? std::optional(*want + 64) : std::nullopt)
          << pfn;
      // Ranges of one to three pages starting here: covered iff every
      // page is backed.
      for (std::uint64_t pages = 1; pages <= 3; ++pages) {
        bool all = true;
        for (std::uint64_t q = pfn; q < pfn + pages; ++q) {
          all = all && walk_reverse(backing, q).has_value();
        }
        EXPECT_EQ(region.covers_range(pfn * kPageSize,
                                      (pfn + pages) * kPageSize - 1),
                  all)
            << pfn << " +" << pages;
      }
    }
  }
}

TEST(FrameIndex, PfnRunsEqualSortedBacking) {
  for (const auto& backing : small_backings()) {
    const mapping_region region(kVaBase, backing);
    std::vector<extent> sorted = backing;
    std::sort(sorted.begin(), sorted.end(),
              [](const extent& a, const extent& b) {
                return a.first_pfn < b.first_pfn;
              });
    const auto& runs = region.pfn_runs();
    ASSERT_EQ(runs.size(), sorted.size());
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].first_pfn, sorted[i].first_pfn);
      EXPECT_EQ(runs[i].page_count, sorted[i].page_count);
      EXPECT_EQ(runs[i].pfn_prefix, prefix);
      EXPECT_EQ(kVaBase + runs[i].first_page * kPageSize,
                *walk_reverse(backing, runs[i].first_pfn));
      if (i > 0) {
        EXPECT_GT(runs[i].first_pfn, runs[i - 1].first_pfn);
      }
      prefix += runs[i].page_count;
    }
  }
}

TEST(FrameIndex, RejectsEmptyOrOverlappingExtents) {
  EXPECT_THROW(mapping_region(kVaBase, {{10, 4}, {20, 0}}),
               contract_violation);
  EXPECT_THROW(mapping_region(kVaBase, {{10, 4}, {13, 2}}),
               contract_violation);
}

}  // namespace
}  // namespace dramdig::os
