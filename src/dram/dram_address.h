// The DRAM-side address tuple. The paper treats (channel, DIMM, rank, bank)
// as one flat "bank" coordinate — two addresses interfere in the row buffer
// iff they share that whole coordinate — so an address is its flat bank,
// row and column, and the simulator keys row-buffer state on `flat_bank`.
#pragma once

#include <cstdint>

namespace dramdig::dram {

struct dram_address {
  std::uint64_t row = 0;
  std::uint64_t column = 0;     // byte offset within the row

  /// Flat bank coordinate: unique per (channel, dimm, rank, bank).
  std::uint64_t flat_bank = 0;

  friend bool operator==(const dram_address&, const dram_address&) = default;
};

/// Two addresses conflict in the row buffer iff same flat bank, different
/// row. This predicate *is* the paper's SBDR ("same bank, different row").
[[nodiscard]] constexpr bool same_bank_different_row(
    const dram_address& a, const dram_address& b) noexcept {
  return a.flat_bank == b.flat_bank && a.row != b.row;
}

}  // namespace dramdig::dram
