#include "os/address_space.h"

#include <algorithm>
#include <bit>

#include "util/expect.h"

namespace dramdig::os {

void mapping_region::buckets::size_for(std::uint64_t key_base,
                                       std::uint64_t end, std::size_t runs) {
  base = key_base;
  const std::uint64_t last = end - base - 1;  // largest key offset
  const std::uint64_t target = std::bit_ceil(runs);
  while ((last >> shift) >= target) ++shift;
  first_run.assign(static_cast<std::size_t>(last >> shift) + 1, 0);
}

void mapping_region::sort_runs_by_frame() {
  // One counting pass over the frame buckets orders the runs bucket by
  // bucket; a sort inside each bucket — about one run, as there are at
  // least as many buckets as runs — finishes the order. Runs are
  // disjoint, so their first frames are distinct and this is std::sort's
  // order, at a fraction of its cost. The counts double as the table: a
  // bucket's first key lies after every run of the buckets before it.
  const std::size_t bucket_count = by_frame_.first_run.size();
  std::vector<std::uint32_t> offset(bucket_count + 1, 0);
  for (const pfn_run& run : by_pfn_) {
    ++offset[by_frame_.bucket_of(run.first_pfn) + 1];
  }
  for (std::size_t b = 0; b < bucket_count; ++b) {
    offset[b + 1] += offset[b];
    by_frame_.first_run[b] = offset[b] > 0 ? offset[b] - 1 : 0;
  }
  std::vector<std::uint32_t> next(offset.begin(), offset.end() - 1);
  std::vector<pfn_run> sorted(by_pfn_.size());
  for (const pfn_run& run : by_pfn_) {
    sorted[next[by_frame_.bucket_of(run.first_pfn)]++] = run;
  }
  for (std::size_t b = 0; b < bucket_count; ++b) {
    if (offset[b + 1] - offset[b] > 1) {
      std::sort(sorted.begin() + offset[b], sorted.begin() + offset[b + 1],
                [](const pfn_run& x, const pfn_run& y) {
                  return x.first_pfn < y.first_pfn;
                });
    }
  }
  by_pfn_.swap(sorted);
}

mapping_region::mapping_region(std::uint64_t va_base,
                               std::vector<extent> backing)
    : va_base_(va_base), backing_(std::move(backing)) {
  DRAMDIG_EXPECTS(va_base_ % kPageSize == 0);
  va_prefix_.reserve(backing_.size() + 1);
  by_pfn_.reserve(backing_.size());
  va_prefix_.push_back(0);
  std::uint64_t pfn_begin = ~std::uint64_t{0};
  for (const extent& e : backing_) {
    DRAMDIG_EXPECTS(e.page_count > 0);
    by_pfn_.push_back({e.first_pfn, e.page_count, total_pages_, 0});
    total_pages_ += e.page_count;
    va_prefix_.push_back(total_pages_);
    pfn_begin = std::min(pfn_begin, e.first_pfn);
    pfn_end_ = std::max(pfn_end_, e.first_pfn + e.page_count);
  }
  if (by_pfn_.empty()) return;
  by_frame_.size_for(pfn_begin, pfn_end_, by_pfn_.size());
  sort_runs_by_frame();
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < by_pfn_.size(); ++i) {
    DRAMDIG_EXPECTS(i == 0 || by_pfn_[i].first_pfn >= by_pfn_[i - 1].end_pfn());
    by_pfn_[i].pfn_prefix = prefix;
    prefix += by_pfn_[i].page_count;
  }
  // pfn_at's table: frame indices, which the sorted runs partition.
  by_index_.size_for(0, total_pages_, by_pfn_.size());
  std::uint32_t r = 0;
  for (std::size_t b = 0; b < by_index_.first_run.size(); ++b) {
    const std::uint64_t first_index = std::uint64_t{b} << by_index_.shift;
    while (r + 1 < by_pfn_.size() && by_pfn_[r + 1].pfn_prefix <= first_index) {
      ++r;
    }
    by_index_.first_run[b] = r;
  }
}

const pfn_run* mapping_region::run_of_pfn(std::uint64_t pfn) const {
  if (pfn < by_frame_.base || pfn >= pfn_end_) return nullptr;
  // Runs are disjoint, so the last run starting at or before pfn is the
  // only candidate.
  const pfn_run& run = by_frame_.find<&pfn_run::first_pfn>(by_pfn_, pfn);
  return pfn < run.end_pfn() ? &run : nullptr;
}

bool mapping_region::contains_page(std::uint64_t pfn) const {
  return run_of_pfn(pfn) != nullptr;
}

std::uint64_t mapping_region::pfn_at(std::uint64_t i) const {
  DRAMDIG_EXPECTS(i < total_pages_);
  const pfn_run& run = by_index_.find<&pfn_run::pfn_prefix>(by_pfn_, i);
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
