// The physical-address -> DRAM-address mapping model.
//
// Intel memory controllers implement this mapping as a linear function over
// GF(2): each flat-bank index bit is a parity over a set of physical address
// bits (a "bank address function"), and row/column indices are direct bit
// extractions. This class is used twice:
//   * as the ground truth inside the memory-controller simulator, and
//   * as the *hypothesis* type the reverse-engineering tools output,
// so tool-vs-truth comparison is comparison of two `address_mapping`s.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dram/dram_address.h"
#include "util/gf2.h"

namespace dramdig::dram {

class address_mapping {
 public:
  /// `bank_functions[i]` is the XOR mask producing bit i of the flat bank
  /// index; `row_bits`/`column_bits` list physical bit positions (ascending)
  /// forming the row/column index. `address_bits` is log2 of the installed
  /// physical memory. Fewer than 32 functions, so bank_count() fits an
  /// unsigned; throws contract_violation otherwise.
  address_mapping(std::vector<std::uint64_t> bank_functions,
                  std::vector<unsigned> row_bits,
                  std::vector<unsigned> column_bits, unsigned address_bits);

  [[nodiscard]] const std::vector<std::uint64_t>& bank_functions() const noexcept {
    return bank_functions_;
  }
  [[nodiscard]] const std::vector<unsigned>& row_bits() const noexcept {
    return row_bits_;
  }
  [[nodiscard]] const std::vector<unsigned>& column_bits() const noexcept {
    return column_bits_;
  }
  [[nodiscard]] unsigned address_bits() const noexcept { return address_bits_; }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return std::uint64_t{1} << address_bits_;
  }
  [[nodiscard]] unsigned bank_count() const noexcept {
    return 1u << bank_functions_.size();
  }

  /// Flat bank index of a physical address (bit i = parity of function i).
  [[nodiscard]] std::uint64_t bank_of(std::uint64_t phys) const;
  [[nodiscard]] std::uint64_t row_of(std::uint64_t phys) const;
  [[nodiscard]] std::uint64_t column_of(std::uint64_t phys) const;

  /// Flat bank, row and column of a physical address in one call.
  [[nodiscard]] dram_address decode(std::uint64_t phys) const;

  /// Inverse mapping: the unique physical address with the given flat bank,
  /// row and column — exists iff the mapping is bijective (see
  /// is_bijective). Solves the bank functions over the non-row non-column
  /// bit positions with GF(2) elimination. Returns nullopt for
  /// non-bijective hypotheses (a tool may output one; the rowhammer harness
  /// then falls back gracefully).
  [[nodiscard]] std::optional<std::uint64_t> encode(std::uint64_t flat_bank,
                                                    std::uint64_t row,
                                                    std::uint64_t column) const;

  /// Physical bits not claimed as row or column bits ("pure bank" bits).
  [[nodiscard]] std::vector<unsigned> pure_bank_bits() const;

  /// True when row bits, column bits and bank functions together form a
  /// bijection on [0, 2^address_bits): bit classes are disjoint, counts add
  /// up, and the stacked GF(2) map has full rank.
  [[nodiscard]] bool is_bijective() const;

  /// Hypothesis equivalence: identical row/column bit sets and bank
  /// functions spanning the same GF(2) space (bank renumbering does not
  /// change timing or hammering behaviour).
  [[nodiscard]] bool equivalent_to(const address_mapping& other) const;

  /// Human-readable rendering, e.g. "(14,18)(15,19) rows 18-32 cols 0-6,8-13".
  [[nodiscard]] std::string describe() const;

  /// Render only the bank functions, Table II style: "(6), (14,17), ...".
  [[nodiscard]] std::string describe_functions() const;

 private:
  std::vector<std::uint64_t> bank_functions_;
  std::vector<unsigned> row_bits_;
  std::vector<unsigned> column_bits_;
  unsigned address_bits_;
};

/// Compact "(a,b,c)" rendering of one XOR mask.
[[nodiscard]] std::string describe_function(std::uint64_t mask);

/// Compact "17-32" / "0-5,7-13" rendering of a bit list.
[[nodiscard]] std::string describe_bit_ranges(const std::vector<unsigned>& bits);

}  // namespace dramdig::dram
