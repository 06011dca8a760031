// Simulated physical memory management.
//
// The reverse-engineering tools live in userspace: they mmap big buffers
// and learn the backing physical frames from /proc/self/pagemap. What the
// OS hands out — how contiguous it is, which frames are reserved —
// directly shapes Algorithm 1's search for a physically contiguous range
// covering all bank bits. This allocator models a buddy-style kernel:
// memory is carved into power-of-two free extents, a few ranges are
// reserved (firmware, kernel), and allocation requests are served from
// extents under a configurable fragmentation level.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace dramdig::os {

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kHugePageSize = 2 * 1024 * 1024;

/// A run of physically contiguous frames [first_pfn, first_pfn + count).
struct extent {
  std::uint64_t first_pfn = 0;
  std::uint64_t page_count = 0;

  [[nodiscard]] std::uint64_t first_byte() const { return first_pfn * kPageSize; }
  [[nodiscard]] std::uint64_t byte_count() const {
    return page_count * kPageSize;
  }
};

struct physical_memory_config {
  std::uint64_t total_bytes = 0;
  /// Fraction of frames the "kernel" holds back, scattered (default ~3%).
  double reserved_fraction = 0.03;
  /// 0 = pristine buddy (multi-MiB runs available); 1 = badly fragmented
  /// (mostly isolated 4 KiB frames). Controls extent sizes handed out.
  double fragmentation = 0.1;
};

class physical_memory {
 public:
  physical_memory(physical_memory_config config, rng r);

  /// Allocate `bytes` worth of frames the way a buddy allocator would:
  /// a list of contiguous extents, largest-first, scattered across the
  /// address space. Throws std::bad_alloc when memory is exhausted.
  [[nodiscard]] std::vector<extent> allocate(std::uint64_t bytes);

  void free(const std::vector<extent>& extents);

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return config_.total_bytes;
  }
  [[nodiscard]] std::uint64_t free_bytes() const noexcept;

 private:
  physical_memory_config config_;
  rng rng_;
  /// Free extents, kept sorted by first_pfn and coalesced.
  std::vector<extent> free_list_;

  void insert_free(extent e);
};

}  // namespace dramdig::os
