// A process-eye view of memory: contiguous virtual ranges backed by the
// frames the simulated kernel handed out, plus the pagemap interface the
// real tools use (DRAMDig reads /proc/self/pagemap as root) to translate
// virtual to physical addresses.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "os/physical_memory.h"

namespace dramdig::os {

/// One physically contiguous run of a region's backing, in frame order.
/// The region keeps its lookup structures at run granularity — an
/// allocation is a few hundred runs even for multi-GiB buffers — and never
/// materializes a per-page table (which used to cost tens of milliseconds
/// of sort time per buffer, dominating whole-pipeline walls).
struct pfn_run {
  std::uint64_t first_pfn = 0;    ///< lowest frame of the run
  std::uint64_t page_count = 0;   ///< frames in the run
  std::uint64_t first_page = 0;   ///< VA page index backing first_pfn
  std::uint64_t pfn_prefix = 0;   ///< frames in runs before this one

  [[nodiscard]] std::uint64_t end_pfn() const noexcept {
    return first_pfn + page_count;
  }
};

/// One mmap'd buffer: virtually contiguous, physically scattered extents.
/// Frame lookups (pfn_at, contains_page, reverse, covers_range) take
/// constant time on average: each reads a bucket table built once by the
/// constructor, then scans the few runs that start in that bucket.
class mapping_region {
 public:
  /// `backing` in VA order; its extents must be non-empty and disjoint.
  mapping_region(std::uint64_t va_base, std::vector<extent> backing);

  [[nodiscard]] std::uint64_t va_base() const noexcept { return va_base_; }
  [[nodiscard]] std::uint64_t byte_count() const noexcept {
    return total_pages_ * kPageSize;
  }

  /// pagemap lookup: virtual address -> physical address.
  [[nodiscard]] std::uint64_t translate(std::uint64_t va) const;

  /// Reverse lookup: physical address -> virtual address, if this region
  /// backs that frame.
  [[nodiscard]] std::optional<std::uint64_t> reverse(std::uint64_t pa) const;

  /// Total pages backing the region.
  [[nodiscard]] std::uint64_t page_count() const noexcept {
    return total_pages_;
  }

  /// The i-th smallest backing frame number, i in [0, page_count()).
  /// O(1) — the indexed view tools use to draw uniform frames.
  [[nodiscard]] std::uint64_t pfn_at(std::uint64_t i) const;

  /// Backing runs ascending by frame number (disjoint, frames unique).
  /// Tools run their physical-side logic (Algorithm 1) over these;
  /// iterating runs in order visits every frame ascending.
  [[nodiscard]] const std::vector<pfn_run>& pfn_runs() const noexcept {
    return by_pfn_;
  }

  /// O(1) membership: is this physical page part of the buffer?
  [[nodiscard]] bool contains_page(std::uint64_t pfn) const;
  /// Is every page of [pa_begin, pa_end) backed? (Algorithm 1's
  /// page_miss check.)
  [[nodiscard]] bool covers_range(std::uint64_t pa_begin,
                                  std::uint64_t pa_end) const;

  [[nodiscard]] const std::vector<extent>& backing() const noexcept {
    return backing_;
  }

 private:
  /// The run containing `pfn`, or nullptr when no run does.
  [[nodiscard]] const pfn_run* run_of_pfn(std::uint64_t pfn) const;

  /// A bucket table over one ascending key of by_pfn_ (`Key`: first_pfn
  /// or pfn_prefix): key k lies in bucket (k - base) >> shift, which holds
  /// a run at or before the last run whose key is at most the bucket's
  /// first key. A lookup reads its bucket and scans forward over the runs
  /// starting inside it; with at least as many buckets as runs that scan
  /// is about one run.
  struct buckets {
    std::uint64_t base = 0;
    unsigned shift = 0;
    std::vector<std::uint32_t> first_run;

    /// Size the table for `runs` keys in [key_base, end), end > key_base.
    void size_for(std::uint64_t key_base, std::uint64_t end, std::size_t runs);
    [[nodiscard]] std::size_t bucket_of(std::uint64_t key) const noexcept {
      return static_cast<std::size_t>((key - base) >> shift);
    }
    /// The last run whose key is at most `key`, for key in [base, end).
    template <std::uint64_t pfn_run::*Key>
    [[nodiscard]] const pfn_run& find(const std::vector<pfn_run>& runs,
                                      std::uint64_t key) const {
      std::size_t r = first_run[bucket_of(key)];
      while (r + 1 < runs.size() && runs[r + 1].*Key <= key) ++r;
      return runs[r];
    }
  };

  /// Order by_pfn_ by first_pfn and fill by_frame_ in the same pass.
  void sort_runs_by_frame();

  std::uint64_t va_base_;
  std::uint64_t total_pages_ = 0;
  std::vector<extent> backing_;
  std::vector<std::uint64_t> va_prefix_;  ///< pages before backing_[i], VA order
  std::vector<pfn_run> by_pfn_;           ///< runs ascending by first_pfn
  std::uint64_t pfn_end_ = 0;             ///< end of the last run
  buckets by_index_;                      ///< pfn_at's table
  buckets by_frame_;                      ///< run_of_pfn's table
};

/// The process address space: owns regions, hands out va ranges.
class address_space {
 public:
  explicit address_space(physical_memory& phys);

  /// mmap + touch all pages (so frames are committed), 4 KiB granularity.
  mapping_region& map_buffer(std::uint64_t bytes);

  /// Regions live in a deque so references returned by map_buffer stay
  /// valid across later mappings.
  [[nodiscard]] const std::deque<mapping_region>& regions() const noexcept {
    return regions_;
  }

 private:
  physical_memory& phys_;
  std::deque<mapping_region> regions_;
  std::uint64_t next_va_ = 0x7f0000000000ull;
};

}  // namespace dramdig::os
