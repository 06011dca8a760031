// Step 2 phase 3: bank address function detection (paper Algorithm 3).
//
// Candidate functions are XOR masks over the detected bank bits: a mask
// that evaluates to a constant parity on every address of every pile is a
// candidate. The paper enumerates all 2^|bank_bits| masks; here each
// pile's XOR differences (restricted to the bank-bit support) are reduced
// to a GF(2) basis, and the complete candidate set is the null space of
// the stacked difference matrix — O(pool * |bank_bits|) row operations.
// Candidates that are linear combinations of fewer-bit candidates are
// redundant (GF(2) reduction implements the paper's prioritize +
// remove_redundant); and the surviving log2(#banks)-sized basis must
// number the piles 0..#banks-1 (check_numbering).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/virtual_clock.h"

namespace dramdig::core {

struct function_outcome {
  bool success = false;
  std::vector<std::uint64_t> functions;  ///< minimal basis
  bool numbering_ok = false;
  std::size_t raw_candidates = 0;  ///< masks surviving all piles
  std::string failure_reason;
};

[[nodiscard]] function_outcome detect_functions(
    const std::vector<std::vector<std::uint64_t>>& piles,
    const std::vector<unsigned>& bank_bits, unsigned bank_count,
    sim::virtual_clock& clock);

}  // namespace dramdig::core
