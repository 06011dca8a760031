// Ablation A: what each piece of domain knowledge buys. DRAMDig's claim
// (paper Section III-A) is that system information, the JEDEC spec and
// empirical observations make most of the mapping knowable before any
// measurement; switching each source off in turn shows what it saves.
//
// Variants, run on a representative machine subset:
//   full            everything on (the tool as shipped)
//   no-sysinfo      bank count unknown -> blind sweep over candidates
//   no-spec-counts  JEDEC row/column counts unknown -> shared bits stay
//                   covered, mapping cannot be completed
//   no-verify       partition accepts single-sample positives -> noisy
//                   machines poison the piles (the DRAMA failure mode)
//
// Exits 1 when the shipped `full` variant fails or recovers a wrong
// mapping on any machine, so a CI run exercises every ablation switch and
// guards the tool as shipped.
#include <cstdio>

#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "util/table.h"

namespace {

using namespace dramdig;

struct variant {
  const char* name;
  core::dramdig_config config;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("== Ablation: the value of each knowledge ingredient ==\n\n");

  std::vector<variant> variants;
  variants.push_back({"full", {}});
  {
    core::dramdig_config c{};
    c.use_system_info = false;
    variants.push_back({"no-sysinfo", c});
  }
  {
    core::dramdig_config c{};
    c.use_spec_counts = false;
    variants.push_back({"no-spec-counts", c});
  }
  {
    core::dramdig_config c{};
    c.partition.verify_positives = false;
    variants.push_back({"no-verify", c});
  }

  text_table table({"Variant", "Machine", "Outcome", "Correct", "Time",
                    "Notes"});
  unsigned full_failures = 0;
  for (int machine_no : {1, 4, 7}) {
    const auto& spec = dram::machine_by_number(machine_no);
    for (const variant& v : variants) {
      core::environment env(spec, 9000 + machine_no);
      core::dramdig_tool tool(env, v.config);
      const auto report = tool.run();
      const bool correct = report.success && report.mapping &&
                           report.mapping->equivalent_to(spec.mapping);
      if (&v == &variants.front() && !correct) ++full_failures;
      table.add_row({v.name, spec.label(),
                     report.success ? "success" : "failed",
                     correct ? "yes" : "no",
                     fmt_duration_s(report.virtual_seconds),
                     report.success
                         ? "banks=" + std::to_string(report.assumed_bank_count)
                         : report.failure_reason.substr(0, 44)});
      std::fflush(stdout);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected: no-sysinfo costs extra time (bank-count sweep); "
              "no-spec-counts cannot complete shared bits; no-verify still "
              "recovers the clean machines but fails on the noisy No.7, "
              "whose contaminated single-sample positives poison the piles "
              "without re-verification.\n");
  if (full_failures > 0) {
    std::printf("FAIL: the full variant missed the truth on %u machine(s)\n",
                full_failures);
    return 1;
  }
  return 0;
}
