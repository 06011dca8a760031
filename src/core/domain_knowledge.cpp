#include "core/domain_knowledge.h"

#include "dram/spec.h"
#include "util/bitops.h"
#include "util/expect.h"

namespace dramdig::core {

domain_knowledge domain_knowledge::from_system_info(
    const sysinfo::system_info& info) {
  const dram::chip_spec spec =
      dram::spec_for(info.generation, info.banks_per_rank);
  domain_knowledge dk{};
  dk.address_bits = log2_exact(info.total_bytes);
  dk.total_banks = info.total_banks();
  dk.bank_function_count = log2_exact(dk.total_banks);
  dk.expected_column_bits = dram::expected_column_bits(spec);
  dk.expected_row_bits =
      dram::expected_row_bits(spec, info.total_bytes, dk.total_banks);
  DRAMDIG_ENSURES(dk.expected_row_bits + dk.expected_column_bits +
                      dk.bank_function_count ==
                  dk.address_bits);
  return dk;
}

}  // namespace dramdig::core
