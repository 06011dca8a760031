// Combination enumeration over bit positions. Algorithm 3 ("gen_xor_masks")
// tries every XOR mask over the detected bank bits from 1-bit combinations
// up to all of them; DRAMA's brute force enumerates combinations over the
// whole physical address range. Both consume this enumerator.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/bitops.h"
#include "util/expect.h"

namespace dramdig {

/// Invoke `visit` with every k-combination mask of the given bit positions,
/// for k in [min_bits, max_bits]. Enumeration order is k ascending, then
/// lexicographic over the position list — which realizes the paper's
/// "starting from one bit to the number of bank bits" priority order.
/// `visit` returning false stops the enumeration early.
inline void for_each_bit_combination(
    const std::vector<unsigned>& positions, unsigned min_bits,
    unsigned max_bits, const std::function<bool(std::uint64_t)>& visit) {
  DRAMDIG_EXPECTS(min_bits >= 1);
  const unsigned n = static_cast<unsigned>(positions.size());
  if (max_bits > n) max_bits = n;
  for (unsigned k = min_bits; k <= max_bits; ++k) {
    std::vector<unsigned> idx(k);
    for (unsigned i = 0; i < k; ++i) idx[i] = i;
    while (true) {
      std::uint64_t mask = 0;
      for (unsigned i : idx) mask |= std::uint64_t{1} << positions[i];
      if (!visit(mask)) return;
      // Advance to the next combination.
      int i = static_cast<int>(k) - 1;
      while (i >= 0 && idx[static_cast<unsigned>(i)] ==
                           n - k + static_cast<unsigned>(i)) {
        --i;
      }
      if (i < 0) break;
      ++idx[static_cast<unsigned>(i)];
      for (unsigned j = static_cast<unsigned>(i) + 1; j < k; ++j) {
        idx[j] = idx[j - 1] + 1;
      }
    }
  }
}

/// Number of k-combinations C(n, k) without overflow for the small n used
/// here (n <= 40).
[[nodiscard]] inline std::uint64_t choose(unsigned n, unsigned k) {
  if (k > n) return 0;
  std::uint64_t r = 1;
  for (unsigned i = 1; i <= k; ++i) {
    r = r * (n - k + i) / i;
  }
  return r;
}

}  // namespace dramdig
