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
// instead of a full recovery — the warm-start demo in two commands.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/mapping_service.h"
#include "api/tool.h"
#include "dram/presets.h"
#include "store/mapping_store.h"
#include "util/json.h"
#include "util/log.h"
#include "util/table.h"
#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace dramdig;
  std::string json_path;
  std::string store_path;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json needs a path\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--store") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --store needs a path\n");
        return 2;
      }
      store_path = argv[++i];
    } else if (std::strncmp(argv[i], "--store=", 8) == 0) {
      store_path = argv[i] + 8;
    } else {
      positional.push_back(argv[i]);
    }
  }
  int machine_no = 1;
  std::uint64_t seed = 42;
  examples::parse_machine_args(
      positional,
      "quickstart [machine_number=1 (1-9)] [seed=42] [--json <path>] "
      "[--store <path>]",
      machine_no, &seed);

  set_log_level(log_level::info);
  const dram::machine_spec& spec = dram::machine_by_number(machine_no);
  std::printf("Machine %s: %s %s, %s, config %s\n", spec.label().c_str(),
              spec.microarchitecture.c_str(), spec.cpu_model.c_str(),
              spec.dram_description().c_str(), spec.config_quadruple().c_str());

  api::tool_result result;
  std::string store_hit;
  if (store_path.empty()) {
    core::environment env(spec, seed);
    result = api::make_tool("dramdig")->run(env);
  } else {
    // Fleet-store path: the service consults the store before dispatch, so
    // a second run against the same store becomes a verification-only job.
    store::mapping_store store(store_path);
    api::service_config config;
    config.store = &store;
    const auto outcomes =
        api::mapping_service(config).run({{spec, "dramdig", {}, seed}});
    result = outcomes.front().result;
    store_hit = outcomes.front().store_hit;
  }

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
    write_file(json_path, w.str());
    std::printf("\nJSON record written to %s\n", json_path.c_str());
  }
  return result.success ? 0 : 1;
}
