// Domain knowledge assembly (paper Section III-A).
//
// DRAMDig's whole advantage over blind tools is that most structure of the
// answer is knowable before a single measurement:
//   * Specifications: JEDEC geometry gives the exact number of row and
//     column bits for the installed DIMMs.
//   * System information: dmidecode/decode-dimms give memory size, channel
//     population, ranks and banks, hence the number of bank functions.
//   * Empirical observations: bank functions are XORs of physical address
//     bits; bits 0-5 address bytes inside one cache line (columns by
//     construction); since Ivy Bridge the lowest bit of the widest bank
//     function is not a column bit.
#pragma once

#include "sysinfo/system_info.h"

namespace dramdig::core {

struct domain_knowledge {
  unsigned address_bits = 0;
  unsigned total_banks = 0;
  unsigned bank_function_count = 0;  ///< log2(total_banks)
  unsigned expected_row_bits = 0;
  unsigned expected_column_bits = 0;

  /// Empirical observation: bits below this are cache-line offset and thus
  /// column bits; timing cannot probe them and does not need to.
  static constexpr unsigned min_probe_bit = 6;

  /// Build from parsed system reports + the JEDEC spec tables.
  [[nodiscard]] static domain_knowledge from_system_info(
      const sysinfo::system_info& info);
};

}  // namespace dramdig::core
