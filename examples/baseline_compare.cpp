// Run all three reverse-engineering tools — DRAMDig, DRAMA (Pessl et al.)
// and Xiao et al. — against the same simulated machine and compare
// outcome, output quality and virtual time cost. This is the per-machine
// view behind Table I, expressed as one three-job mapping_service batch:
// the tools run concurrently (each on its own copy of the machine) and the
// unified tool_result schema renders one row per tool.
//
//   $ baseline_compare [machine_number=2] [seed=7]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "api/mapping_service.h"
#include "dram/presets.h"
#include "util/table.h"
#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace dramdig;
  int machine_no = 2;
  std::uint64_t seed = 7;
  examples::parse_machine_args(
      argc, argv, "baseline_compare [machine_number=2 (1-9)] [seed=7]",
      machine_no, &seed);
  const dram::machine_spec& spec = dram::machine_by_number(machine_no);

  std::printf("Machine %s (%s, %s, config %s), seed %llu\n\n",
              spec.label().c_str(), spec.microarchitecture.c_str(),
              spec.dram_description().c_str(), spec.config_quadruple().c_str(),
              static_cast<unsigned long long>(seed));

  std::vector<api::job_spec> jobs;
  std::vector<std::string> titles;
  for (const std::string& tool : api::tool_registry::global().names()) {
    jobs.push_back({spec, tool, {}, seed});
    titles.push_back(api::make_tool(tool)->describe().title);
  }
  const auto outcomes = api::mapping_service().run(jobs);

  text_table table({"Tool", "Outcome", "Mapping correct", "Time", "Notes"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const api::tool_result& r = outcomes[i].result;
    // "Mapping correct" means the whole mapping: DRAMA's verified covers
    // only the bank-function span (its claim), so its fixed row heuristic
    // must additionally match the truth to earn a "yes" here.
    const bool correct =
        r.tool == "drama"
            ? r.verified && r.mapping &&
                  r.mapping->row_bits() == spec.mapping.row_bits()
            : r.verified;
    table.add_row({titles[i], r.outcome, correct ? "yes" : "no",
                   fmt_duration_s(r.virtual_seconds),
                   r.success ? r.detail : r.failure_reason});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
