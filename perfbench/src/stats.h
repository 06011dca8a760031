// Order statistics for the benchmark's reported timings.
//
// A timing is reported as a median plus the highest percentile that still
// has at least ten samples beyond it, together with the percentile used and
// the sample count, so a tail figure is never read off a handful of points.
// When even the lowest ladder rung has fewer than ten samples beyond it, the
// tail falls back to the median.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle elements for an even count).
/// Throws std::invalid_argument on an empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

/// A tail figure: which percentile was reported and how many samples back it.
struct tail_stat {
  double value = 0.0;
  double percentile = 50.0;  ///< 50 = median-only fallback
  std::size_t samples = 0;   ///< total sample count
  std::size_t beyond = 0;    ///< samples ranked above the reported one
};

/// Percentile ladder the tail helper climbs, lowest first.
inline constexpr std::array<double, 6> kTailLadder{75.0, 90.0,  95.0,
                                                   99.0, 99.9, 99.99};

/// Samples a reported tail percentile must have ranked above it.
inline constexpr std::size_t kMinBeyond = 10;

/// Highest ladder percentile (nearest-rank definition: the value at rank
/// ceil(p/100 * n)) with at least kMinBeyond samples ranked above it.
/// Falls back to the median, reported as percentile 50, when no rung
/// qualifies. Throws std::invalid_argument on an empty input.
inline tail_stat tail_percentile(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("tail of no samples");
  const std::size_t n = values.size();
  tail_stat out;
  out.samples = n;
  out.value = median(values);
  out.beyond = n - (n + 1) / 2;
  std::sort(values.begin(), values.end());
  for (const double p : kTailLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < kMinBeyond) break;
    out.value = values[rank - 1];
    out.percentile = p;
    out.beyond = n - rank;
  }
  return out;
}

}  // namespace perfbench
