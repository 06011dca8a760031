#include "os/address_space.h"

#include <algorithm>

#include "util/expect.h"

namespace dramdig::os {

mapping_region::mapping_region(std::uint64_t va_base,
                               std::vector<extent> backing)
    : va_base_(va_base), backing_(std::move(backing)) {
  DRAMDIG_EXPECTS(va_base_ % kPageSize == 0);
  va_prefix_.reserve(backing_.size() + 1);
  by_pfn_.reserve(backing_.size());
  va_prefix_.push_back(0);
  for (const extent& e : backing_) {
    by_pfn_.push_back({e.first_pfn, e.page_count, total_pages_, 0});
    total_pages_ += e.page_count;
    va_prefix_.push_back(total_pages_);
  }
  std::sort(by_pfn_.begin(), by_pfn_.end(),
            [](const pfn_run& a, const pfn_run& b) {
              return a.first_pfn < b.first_pfn;
            });
  std::uint64_t prefix = 0;
  for (pfn_run& run : by_pfn_) {
    run.pfn_prefix = prefix;
    prefix += run.page_count;
  }
}

const pfn_run* mapping_region::run_of_pfn(std::uint64_t pfn) const {
  // Last run starting at or before pfn; runs are disjoint, so it is the
  // only candidate.
  const auto it = std::upper_bound(
      by_pfn_.begin(), by_pfn_.end(), pfn,
      [](std::uint64_t v, const pfn_run& run) { return v < run.first_pfn; });
  if (it == by_pfn_.begin()) return nullptr;
  const pfn_run& run = *(it - 1);
  return pfn < run.end_pfn() ? &run : nullptr;
}

bool mapping_region::contains_page(std::uint64_t pfn) const {
  return run_of_pfn(pfn) != nullptr;
}

std::uint64_t mapping_region::pfn_at(std::uint64_t i) const {
  DRAMDIG_EXPECTS(i < total_pages_);
  const auto it = std::upper_bound(
      by_pfn_.begin(), by_pfn_.end(), i,
      [](std::uint64_t v, const pfn_run& run) { return v < run.pfn_prefix; });
  const pfn_run& run = *(it - 1);
  return run.first_pfn + (i - run.pfn_prefix);
}

std::uint64_t mapping_region::translate(std::uint64_t va) const {
  DRAMDIG_EXPECTS(va >= va_base_);
  const std::uint64_t offset = va - va_base_;
  const std::uint64_t page = offset / kPageSize;
  DRAMDIG_EXPECTS(page < total_pages_);
  const auto it =
      std::upper_bound(va_prefix_.begin(), va_prefix_.end(), page);
  const std::size_t idx = static_cast<std::size_t>(it - va_prefix_.begin()) - 1;
  const extent& e = backing_[idx];
  return (e.first_pfn + (page - va_prefix_[idx])) * kPageSize +
         offset % kPageSize;
}

std::optional<std::uint64_t> mapping_region::reverse(std::uint64_t pa) const {
  const std::uint64_t pfn = pa / kPageSize;
  const pfn_run* run = run_of_pfn(pfn);
  if (run == nullptr) return std::nullopt;
  const std::uint64_t page = run->first_page + (pfn - run->first_pfn);
  return va_base_ + page * kPageSize + pa % kPageSize;
}

bool mapping_region::covers_range(std::uint64_t pa_begin,
                                  std::uint64_t pa_end) const {
  DRAMDIG_EXPECTS(pa_begin <= pa_end);
  const std::uint64_t first = pa_begin / kPageSize;
  const std::uint64_t last = (pa_end + kPageSize - 1) / kPageSize;  // excl.
  if (first >= last) return true;  // empty page range
  // Walk runs ascending from the one containing `first`: covering
  // [first, last) means each run ends exactly where a physically adjacent
  // run begins (runs are sorted by frame and disjoint).
  const pfn_run* run = run_of_pfn(first);
  if (run == nullptr) return false;
  std::uint64_t at = run->end_pfn();
  while (at < last) {
    const std::size_t next =
        static_cast<std::size_t>(run - by_pfn_.data()) + 1;
    if (next >= by_pfn_.size() || by_pfn_[next].first_pfn != at) return false;
    run = &by_pfn_[next];
    at = run->end_pfn();
  }
  return true;
}

address_space::address_space(physical_memory& phys) : phys_(phys) {}

mapping_region& address_space::map_buffer(std::uint64_t bytes) {
  auto backing = phys_.allocate(bytes);
  regions_.emplace_back(next_va_, std::move(backing));
  next_va_ += ((bytes + kPageSize - 1) / kPageSize + 16) * kPageSize;
  return regions_.back();
}

}  // namespace dramdig::os
