#include "os/physical_memory.h"

#include <algorithm>
#include <cmath>
#include <new>

#include "util/expect.h"

namespace dramdig::os {

physical_memory::physical_memory(physical_memory_config config, rng r)
    : config_(config), rng_(std::move(r)) {
  DRAMDIG_EXPECTS(config_.total_bytes >= 64 * kPageSize);
  DRAMDIG_EXPECTS(config_.total_bytes % kPageSize == 0);
  DRAMDIG_EXPECTS(config_.reserved_fraction >= 0 &&
                  config_.reserved_fraction < 0.5);
  DRAMDIG_EXPECTS(config_.fragmentation >= 0 && config_.fragmentation <= 1);

  const std::uint64_t total_pages = config_.total_bytes / kPageSize;

  // Carve reserved holes: the kernel text around the bottom plus scattered
  // firmware/driver reservations, each a small power-of-two block.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> holes;  // [pfn, count)
  const std::uint64_t kernel_pages =
      std::max<std::uint64_t>(16, total_pages / 256);
  holes.emplace_back(0, kernel_pages);
  std::uint64_t reserved_budget = static_cast<std::uint64_t>(
      static_cast<double>(total_pages) * config_.reserved_fraction);
  reserved_budget = reserved_budget > kernel_pages
                        ? reserved_budget - kernel_pages
                        : 0;
  while (reserved_budget > 0) {
    // Reservations come in 256 KiB..4 MiB blocks; keeping them coarse
    // leaves the multi-MiB contiguous free runs a freshly booted kernel
    // really has (Algorithm 1 needs runs of up to 2^(b_max+1) bytes).
    const std::uint64_t chunk = std::min<std::uint64_t>(
        reserved_budget, std::uint64_t{64} << rng_.below(5));
    const std::uint64_t at = rng_.below(total_pages - chunk);
    holes.emplace_back(at, chunk);
    reserved_budget -= chunk;
  }
  // Fragmentation pins used pages on a jittered grid whose spacing shrinks
  // exponentially with the level — at 0.1 free runs span tens of MiB, near
  // 1.0 nothing larger than a few hundred KiB survives. Uniform random
  // holes would NOT model this: even thousands of them leave multi-MiB
  // gaps with high probability.
  if (config_.fragmentation > 0.0) {
    const double exponent = 16.0 * (1.0 - config_.fragmentation);
    const std::uint64_t spacing = std::max<std::uint64_t>(
        32, static_cast<std::uint64_t>(std::pow(2.0, exponent)));
    for (std::uint64_t at = spacing / 2; at + 16 < total_pages;
         at += spacing) {
      const std::uint64_t jitter = rng_.below(std::max<std::uint64_t>(
          1, spacing / 2));
      const std::uint64_t pos =
          std::min(at + jitter, total_pages - 16);
      holes.emplace_back(pos, 4 + rng_.below(12));
    }
  }
  std::sort(holes.begin(), holes.end());

  // Free list = complement of the holes.
  std::uint64_t cursor = 0;
  for (const auto& [at, count] : holes) {
    if (at > cursor) free_list_.push_back({cursor, at - cursor});
    cursor = std::max(cursor, at + count);
  }
  if (cursor < total_pages) free_list_.push_back({cursor, total_pages - cursor});
}

std::uint64_t physical_memory::free_bytes() const noexcept {
  std::uint64_t pages = 0;
  for (const extent& e : free_list_) pages += e.page_count;
  return pages * kPageSize;
}

std::vector<extent> physical_memory::allocate(std::uint64_t bytes) {
  DRAMDIG_EXPECTS(bytes > 0);
  std::uint64_t pages_needed = (bytes + kPageSize - 1) / kPageSize;
  std::vector<extent> out;

  // Buddy-like behaviour: one allocation is served in grabs that
  // *continue the same free extent* most of the time, so a big request
  // yields long physically contiguous runs — the property Algorithm 1
  // depends on. Fragmentation both raises the chance of jumping to a
  // different extent between grabs and shrinks the grab itself (a
  // fragmented buddy system only has small free blocks), so a fragmented
  // system yields short runs scattered across the space.
  const std::uint64_t grab_pages = std::max<std::uint64_t>(
      8, static_cast<std::uint64_t>(
             static_cast<double>(kHugePageSize / kPageSize) *
             (1.0 - config_.fragmentation)));
  std::size_t current = free_list_.size();  // invalid -> pick fresh
  while (pages_needed > 0) {
    if (free_list_.empty()) {
      free(out);
      throw std::bad_alloc();
    }
    if (current >= free_list_.size() || rng_.chance(config_.fragmentation)) {
      current = rng_.below(free_list_.size());
    }
    extent& src = free_list_[current];
    const std::uint64_t take =
        std::min({pages_needed, src.page_count, grab_pages});
    extent grabbed{src.first_pfn, take};
    src.first_pfn += take;
    src.page_count -= take;
    if (src.page_count == 0) {
      free_list_.erase(free_list_.begin() +
                       static_cast<std::ptrdiff_t>(current));
      current = free_list_.size();  // force re-pick
    }
    // Merge into the previous grab when physically adjacent, so callers
    // see true run lengths.
    if (!out.empty() &&
        out.back().first_pfn + out.back().page_count == grabbed.first_pfn) {
      out.back().page_count += grabbed.page_count;
    } else {
      out.push_back(grabbed);
    }
    pages_needed -= take;
  }
  return out;
}

void physical_memory::insert_free(extent e) {
  if (e.page_count == 0) return;
  auto it = std::lower_bound(free_list_.begin(), free_list_.end(), e,
                             [](const extent& a, const extent& b) {
                               return a.first_pfn < b.first_pfn;
                             });
  it = free_list_.insert(it, e);
  // Coalesce with neighbours.
  if (it != free_list_.begin()) {
    auto prev = it - 1;
    if (prev->first_pfn + prev->page_count == it->first_pfn) {
      prev->page_count += it->page_count;
      it = free_list_.erase(it) - 1;
    }
  }
  if (it + 1 != free_list_.end()) {
    auto next = it + 1;
    if (it->first_pfn + it->page_count == next->first_pfn) {
      it->page_count += next->page_count;
      free_list_.erase(next);
    }
  }
}

void physical_memory::free(const std::vector<extent>& extents) {
  for (const extent& e : extents) insert_free(e);
}

}  // namespace dramdig::os
