// Bring-your-own mapping: define a machine that is *not* one of the nine
// paper presets and watch DRAMDig uncover it. This is the public-API path
// a user would take to study a hypothetical memory controller: build an
// address_mapping (bank XOR functions + row/column bits), wrap it in a
// machine_spec, and run the tool.
#include <cstdio>

#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  using namespace dramdig;

  // A fictional single-channel DDR4 system, 8 GiB, 16 banks, with a
  // 3-wide rank function — unlike any Table II machine.
  auto fn = [](std::initializer_list<unsigned> bits) {
    std::uint64_t m = 0;
    for (unsigned b : bits) m |= std::uint64_t{1} << b;
    return m;
  };
  std::vector<unsigned> rows, cols;
  for (unsigned b = 17; b <= 32; ++b) rows.push_back(b);
  for (unsigned b = 0; b <= 13; ++b) {
    if (b != 9) cols.push_back(b);  // bit 9 feeds the wide function instead
  }
  // Pure bank bits {9, 14, 15, 16}; the wide function mixes bit 9 with two
  // column bits and two row bits.
  dram::address_mapping truth(
      {fn({14, 17}), fn({15, 18}), fn({16, 19}), fn({9, 12, 13, 20, 21})},
      rows, cols, /*address_bits=*/33);

  dram::machine_spec spec{
      /*number=*/42,
      "Custom",
      "hypothetical-mc",
      dram::ddr_generation::ddr4,
      std::uint64_t{8} * 1024 * 1024 * 1024,
      /*channels=*/1,
      /*dimms_per_channel=*/1,
      /*ranks_per_dimm=*/1,
      /*banks_per_rank=*/16,
      /*ecc=*/false,
      truth,
      dram::vulnerability_profile{0.05, 0.002, 2},
      dram::timing_quality::clean};

  std::printf("custom machine: %s\n", truth.describe().c_str());
  core::environment env(spec, /*seed=*/99);
  core::dramdig_tool tool(env);
  const auto report = tool.run();

  std::printf("dramdig:        %s\n",
              report.mapping ? report.mapping->describe().c_str() : "(none)");
  std::printf("success=%s equivalent=%s time=%s\n",
              report.success ? "yes" : "no",
              report.mapping && report.mapping->equivalent_to(truth) ? "yes"
                                                                     : "no",
              fmt_duration_s(report.virtual_seconds).c_str());
  return report.success ? 0 : 1;
}
