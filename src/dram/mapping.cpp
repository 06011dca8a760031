#include "dram/mapping.h"

#include <algorithm>
#include <set>

#include "util/bitops.h"
#include "util/expect.h"

namespace dramdig::dram {

address_mapping::address_mapping(std::vector<std::uint64_t> bank_functions,
                                 std::vector<unsigned> row_bits,
                                 std::vector<unsigned> column_bits,
                                 unsigned address_bits)
    : bank_functions_(std::move(bank_functions)),
      row_bits_(std::move(row_bits)),
      column_bits_(std::move(column_bits)),
      address_bits_(address_bits) {
  DRAMDIG_EXPECTS(address_bits_ > 0 && address_bits_ <= 48);
  DRAMDIG_EXPECTS(bank_functions_.size() < 32);
  std::sort(row_bits_.begin(), row_bits_.end());
  std::sort(column_bits_.begin(), column_bits_.end());
  const std::uint64_t limit = std::uint64_t{1} << address_bits_;
  for (unsigned b : row_bits_) DRAMDIG_EXPECTS(b < address_bits_);
  for (unsigned b : column_bits_) DRAMDIG_EXPECTS(b < address_bits_);
  for (std::uint64_t f : bank_functions_) {
    DRAMDIG_EXPECTS(f != 0 && f < limit);
  }
}

std::uint64_t address_mapping::bank_of(std::uint64_t phys) const {
  return bank_id(phys, bank_functions_);
}

std::uint64_t address_mapping::row_of(std::uint64_t phys) const {
  return gather_bits(phys, row_bits_);
}

std::uint64_t address_mapping::column_of(std::uint64_t phys) const {
  return gather_bits(phys, column_bits_);
}

dram_address address_mapping::decode(std::uint64_t phys) const {
  dram_address a{};
  a.flat_bank = bank_of(phys);
  a.row = row_of(phys);
  a.column = column_of(phys);
  return a;
}

std::vector<unsigned> address_mapping::pure_bank_bits() const {
  std::set<unsigned> taken(row_bits_.begin(), row_bits_.end());
  taken.insert(column_bits_.begin(), column_bits_.end());
  std::vector<unsigned> out;
  for (unsigned b = 0; b < address_bits_; ++b) {
    if (!taken.contains(b)) out.push_back(b);
  }
  return out;
}

std::optional<std::uint64_t> address_mapping::encode(
    std::uint64_t flat_bank, std::uint64_t row, std::uint64_t column) const {
  if (flat_bank >= bank_count()) return std::nullopt;
  if (row >= (std::uint64_t{1} << row_bits_.size())) return std::nullopt;
  if (column >= (std::uint64_t{1} << column_bits_.size())) return std::nullopt;

  const std::uint64_t fixed =
      scatter_bits(row, row_bits_) | scatter_bits(column, column_bits_);
  // Residual targets once the row/column contribution is folded in.
  const std::uint64_t residual = flat_bank ^ bank_of(fixed);
  const std::uint64_t support = mask_of_bits(pure_bank_bits());
  const auto solved = gf2::solve(bank_functions_, residual, support);
  if (!solved) return std::nullopt;
  const std::uint64_t phys = fixed | *solved;
  // encode must be a right inverse of decode; guard against degenerate
  // hypotheses where the solver found *a* solution in a non-bijective map.
  if (bank_of(phys) != flat_bank || row_of(phys) != row ||
      column_of(phys) != column) {
    return std::nullopt;
  }
  return phys;
}

bool address_mapping::is_bijective() const {
  // Disjoint classes and exact bit accounting.
  std::set<unsigned> rows(row_bits_.begin(), row_bits_.end());
  for (unsigned c : column_bits_) {
    if (rows.contains(c)) return false;
  }
  if (row_bits_.size() + column_bits_.size() + bank_functions_.size() !=
      address_bits_) {
    return false;
  }
  // Stack row/column unit vectors and bank functions; bijective iff full
  // rank over the address bits.
  gf2::matrix m;
  for (unsigned b : row_bits_) m.push_back(std::uint64_t{1} << b);
  for (unsigned b : column_bits_) m.push_back(std::uint64_t{1} << b);
  for (std::uint64_t f : bank_functions_) m.push_back(f);
  return gf2::rank(m) == address_bits_;
}

bool address_mapping::equivalent_to(const address_mapping& other) const {
  return address_bits_ == other.address_bits_ &&
         row_bits_ == other.row_bits_ &&
         column_bits_ == other.column_bits_ &&
         gf2::same_span(bank_functions_, other.bank_functions_);
}

std::string describe_function(std::uint64_t mask) {
  std::string out = "(";
  bool first = true;
  for (unsigned b : bits_of_mask(mask)) {
    if (!first) out += ",";
    out += std::to_string(b);
    first = false;
  }
  return out + ")";
}

std::string describe_bit_ranges(const std::vector<unsigned>& bits) {
  if (bits.empty()) return "-";
  std::string out;
  std::size_t i = 0;
  while (i < bits.size()) {
    std::size_t j = i;
    while (j + 1 < bits.size() && bits[j + 1] == bits[j] + 1) ++j;
    if (!out.empty()) out += ",";
    if (j == i) {
      out += std::to_string(bits[i]);
    } else {
      out += std::to_string(bits[i]) + "-" + std::to_string(bits[j]);
    }
    i = j + 1;
  }
  return out;
}

std::string address_mapping::describe_functions() const {
  std::string out;
  for (std::size_t i = 0; i < bank_functions_.size(); ++i) {
    if (i != 0) out += ", ";
    out += describe_function(bank_functions_[i]);
  }
  return out;
}

std::string address_mapping::describe() const {
  return "banks " + describe_functions() + " | rows " +
         describe_bit_ranges(row_bits_) + " | cols " +
         describe_bit_ranges(column_bits_);
}

}  // namespace dramdig::dram
