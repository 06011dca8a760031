// Quickstart: reverse-engineer the DRAM address mapping of one simulated
// machine through the unified tool API and compare against the ground
// truth.
//
//   $ quickstart [machine_number=1] [seed=42] [--json <path>] [--store <path>]
//
// Walks the whole DRAMDig pipeline with info-level narration, prints the
// uncovered bank functions, row bits and column bits in the format of the
// paper's Table II, and with --json writes the run's tool_result as a
// machine-readable record. The exit code reflects tool_result::success, so
// the binary doubles as a CI smoke check.
//
// --store points at a persistent fleet mapping store (created on first
// use): the first invocation runs cold and records the recovered mapping;
// a second invocation against the same store prints `store_hit: verify`
// and re-confirms the stored functions with a few hundred designed probes
// instead of a full recovery — the warm-start demo in two commands. A
// store that cannot be saved prints an `error:` line and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "api/mapping_service.h"
#include "dram/presets.h"
#include "store/mapping_store.h"
#include "util/json.h"
#include "util/log.h"
#include "util/table.h"
#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace dramdig;
  const char* usage =
      "quickstart [machine_number=1 (1-9)] [seed=42] [--json <path>] "
      "[--store <path>]";
  std::string json_path;
  std::string store_path;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (!examples::parse_path_option(argc, argv, i, "--json", usage,
                                     json_path) &&
        !examples::parse_path_option(argc, argv, i, "--store", usage,
                                     store_path)) {
      positional.push_back(argv[i]);
    }
  }
  int machine_no = 1;
  std::uint64_t seed = 42;
  examples::parse_machine_args(positional, usage, machine_no, &seed);

  set_log_level(log_level::info);
  const dram::machine_spec& spec = dram::machine_by_number(machine_no);
  std::printf("Machine %s: %s %s, %s, config %s\n", spec.label().c_str(),
              spec.microarchitecture.c_str(), spec.cpu_model.c_str(),
              spec.dram_description().c_str(), spec.config_quadruple().c_str());

  // One job through the service, which grades it against the ground
  // truth. With --store the service consults the store before dispatch, so
  // a second run against the same store becomes a verification-only job.
  std::optional<store::mapping_store> store;
  api::service_config config;
  if (!store_path.empty()) config.store = &store.emplace(store_path);
  const api::job_outcome outcome =
      api::mapping_service(config).run({{spec, "dramdig", {}, seed}}).front();
  const api::tool_result& result = outcome.result;
  const std::string& store_hit = outcome.store_hit;
  const std::string& store_error = outcome.store_error;

  std::printf("\n== DRAMDig result ==\n");
  if (!store_hit.empty()) {
    std::printf("store_hit:      %s\n", store_hit.c_str());
  }
  std::printf("success:        %s\n", result.success ? "yes" : "no");
  if (!result.success) {
    std::printf("reason:         %s\n", result.failure_reason.c_str());
  }
  std::printf("virtual time:   %s\n",
              fmt_duration_s(result.virtual_seconds).c_str());
  std::printf("measurements:   %llu (%llu answered by the reuse cache)\n",
              static_cast<unsigned long long>(result.measurement_count),
              static_cast<unsigned long long>(result.measurements_saved));
  std::printf("detail:         %s\n", result.detail.c_str());

  if (result.mapping) {
    std::printf("\nuncovered:      %s\n", result.mapping->describe().c_str());
    std::printf("ground truth:   %s\n", spec.mapping.describe().c_str());
    std::printf("equivalent:     %s\n", result.verified ? "YES" : "NO");
  }

  if (!json_path.empty()) {
    json_writer w;
    w.begin_object();
    w.key("machine").value(spec.label());
    w.key("seed").value(seed);
    w.key("result");
    result.to_json(w);
    w.end_object();
    try {
      write_file(json_path, w.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("\nJSON record written to %s\n", json_path.c_str());
  }
  if (!store_error.empty()) {
    // The run's result stands, but the store it was meant to seed is gone.
    std::fprintf(stderr, "error: mapping store save failed: %s\n",
                 store_error.c_str());
    return 1;
  }
  return result.success ? 0 : 1;
}
