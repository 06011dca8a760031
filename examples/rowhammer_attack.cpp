// Double-sided rowhammer driven by a reverse-engineered mapping — the
// experiment of Table III. Reverse-engineers the machine with DRAMDig and
// with DRAMA, then hammers for five (virtual) minutes with each tool's
// hypothesis and reports bit flips plus the fraction of hammer windows
// that were *physically* double-sided (the mapping-fidelity number that
// explains the flip gap).
//
//   $ rowhammer_attack [machine_number=1] [seed=11]
#include <cstdio>
#include <cstdlib>

#include "baselines/drama.h"
#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "rowhammer/harness.h"
#include "util/table.h"
#include "cli_args.h"

namespace {

void hammer_with(const char* label, dramdig::sim::machine& machine,
                 const dramdig::dram::address_mapping& hypothesis,
                 std::uint64_t seed, dramdig::text_table& table) {
  using namespace dramdig;
  rng r(seed);
  const auto stats = rowhammer::run_double_sided_test(machine, hypothesis, r);
  table.add_row({label, std::to_string(stats.bit_flips),
                 std::to_string(stats.windows),
                 fmt_double(100.0 * stats.double_sided_fidelity(), 1) + "%",
                 std::to_string(stats.encode_failures)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dramdig;
  int machine_no = 1;
  std::uint64_t seed = 11;
  examples::parse_machine_args(
      argc, argv, "rowhammer_attack [machine_number=1 (1-9)] [seed=11]",
      machine_no, &seed);
  const dram::machine_spec& spec = dram::machine_by_number(machine_no);

  std::printf("Double-sided rowhammer on %s (%s), 5-minute tests\n\n",
              spec.label().c_str(), spec.dram_description().c_str());
  text_table table({"Mapping source", "Bit flips", "Windows",
                    "True double-sided", "Placement failures"});

  // DRAMDig hypothesis.
  {
    core::environment env(spec, seed);
    core::dramdig_tool tool(env);
    const auto report = tool.run();
    if (report.mapping) {
      hammer_with("DRAMDig", env.mach(), *report.mapping, seed ^ 0xbeef,
                  table);
    }
  }
  // DRAMA hypothesis (fresh environment: independent run of the machine).
  {
    core::environment env(spec, seed);
    baselines::drama_tool tool(env);
    const auto report = tool.run();
    if (report.mapping) {
      hammer_with("DRAMA", env.mach(), *report.mapping, seed ^ 0xbeef, table);
    } else {
      table.add_row({"DRAMA", "-", "-", "-", "no mapping produced"});
    }
  }
  // Oracle: ground truth (upper bound for this machine's vulnerability).
  {
    core::environment env(spec, seed);
    hammer_with("ground truth", env.mach(), spec.mapping, seed ^ 0xbeef,
                table);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
