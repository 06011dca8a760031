// Reproduces **Table III**: double-sided rowhammer tests on machines No.1,
// No.2 and No.5 — five 5-minute tests per machine, bit flips reported as
// DRAMDig/DRAMA.
//
// Protocol mirrors the paper: DRAMDig's mapping is uncovered once per
// machine (it is deterministic); DRAMA is re-run per test because its
// output varies run to run — which is exactly why its flip counts swing
// between "comparable" and zero. Expected shape: DRAMDig >> DRAMA in
// total, DRAMA hitting zero in some tests, and machine vulnerability
// ordering No.2 >> No.1 >> No.5.
#include <cstdio>

#include "baselines/drama.h"
#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "rowhammer/harness.h"
#include "util/table.h"

namespace {

using namespace dramdig;

/// One paper test: 5 virtual minutes of double-sided hammering.
std::uint64_t run_test(sim::machine& machine,
                       const dram::address_mapping& hypothesis,
                       std::uint64_t seed) {
  rng r(seed);
  return rowhammer::run_double_sided_test(machine, hypothesis, r).bit_flips;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("== Table III: double-sided rowhammer, 5 tests x 5 minutes, "
              "bit flips as DRAMDig/DRAMA ==\n\n");
  text_table table({"Machine", "T1", "T2", "T3", "T4", "T5", "Total"});

  for (int machine_no : {1, 2, 5}) {
    const dram::machine_spec& spec = dram::machine_by_number(machine_no);

    // DRAMDig: one deterministic reverse-engineering run.
    core::environment dig_env(spec, 5000 + machine_no);
    const auto dig_report = core::dramdig_tool(dig_env).run();

    std::uint64_t dig_total = 0, drama_total = 0;
    std::vector<std::string> cells;
    for (int t = 0; t < 5; ++t) {
      const std::uint64_t seed =
          7000ull + static_cast<std::uint64_t>(machine_no) * 100 + t;
      std::uint64_t dig_flips = 0;
      if (dig_report.mapping) {
        dig_flips = run_test(dig_env.mach(), *dig_report.mapping, seed);
      }
      // DRAMA: fresh single-pass run per test, the way the tool actually
      // ships — one clustering + brute-force pass, output whatever it
      // found. (The multi-trial agreement loop models the patient Fig. 2
      // protocol; the paper's Table III hammered with the per-run outputs,
      // which is where DRAMA's zeros come from.)
      core::environment drama_env(spec, seed);
      baselines::drama_config drama_cfg{};
      drama_cfg.max_trials = 1;
      const auto drama_report =
          baselines::drama_tool(drama_env, drama_cfg).run();
      std::uint64_t drama_flips = 0;
      if (drama_report.mapping) {
        drama_flips = run_test(drama_env.mach(), *drama_report.mapping, seed);
      }
      dig_total += dig_flips;
      drama_total += drama_flips;
      cells.push_back(std::to_string(dig_flips) + "/" +
                      std::to_string(drama_flips));
      std::fflush(stdout);
    }
    table.add_row({spec.label(), cells[0], cells[1], cells[2], cells[3],
                   cells[4],
                   std::to_string(dig_total) + "/" +
                       std::to_string(drama_total)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper totals for reference — No.1: 2051/1098, No.2: "
              "4863/1875, No.5: 57/7\n");
  return 0;
}
