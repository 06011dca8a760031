// Reverse-engineer every paper machine — a live rendition of Table II,
// submitted as one mapping_service batch. The worker pool drains the nine
// machines concurrently; a progress observer narrates completions as they
// land (in wall-clock order), while the final table merges by submission
// index, so it is identical however the pool interleaves.
//
//   $ uncover_all_machines [--store <path>] [--machines=1,3,7]
//
// --store points at a persistent fleet mapping store: the first fleet run
// seeds it (every job prints `store_hit: cold`), a repeat run against the
// same store turns every machine into a verification-only job
// (`store_hit: verify`, a few hundred designed probes each) and must
// reproduce the stored mappings bit-identically — the per-machine
// `mapping N: ...` lines exist so a script can diff the two runs. A
// store that cannot be saved prints an `error:` line and exits 1.
// --machines restricts the fleet to a comma-separated list of paper
// machine numbers (the CI round-trip smoke uses a three-machine fleet);
// a token that is not exactly a paper machine number exits 2.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "api/mapping_service.h"
#include "cli_args.h"
#include "dram/presets.h"
#include "store/mapping_store.h"
#include "util/table.h"

namespace {

using namespace dramdig;

/// Narrates job completions; the service serializes observer calls, so
/// plain printf needs no locking here.
class narrator final : public api::progress_observer {
 public:
  explicit narrator(const std::vector<api::job_spec>& jobs) : jobs_(jobs) {}

  void on_job_done(std::size_t index,
                   const api::job_outcome& outcome) override {
    std::printf("  [%s %s] %s in %s (wall %.2fs)%s%s\n",
                jobs_[index].machine.label().c_str(),
                outcome.result.tool.c_str(), outcome.result.outcome.c_str(),
                fmt_duration_s(outcome.result.virtual_seconds).c_str(),
                outcome.wall_seconds,
                outcome.store_hit.empty() ? "" : " store_hit: ",
                outcome.store_hit.c_str());
  }

 private:
  const std::vector<api::job_spec>& jobs_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dramdig;

  std::string store_path;
  std::optional<std::string> machines_arg;
  const char* usage = "uncover_all_machines [--store <path>] [--machines=1,2]";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--machines=", 11) == 0) {
      machines_arg = argv[i] + 11;
    } else if (!examples::parse_path_option(argc, argv, i, "--store", usage,
                                            store_path)) {
      examples::usage_exit(usage);
    }
  }
  std::vector<int> wanted;
  for (std::size_t at = 0; machines_arg && at <= machines_arg->size();) {
    const std::size_t comma = machines_arg->find(',', at);
    const std::size_t end =
        comma == std::string::npos ? machines_arg->size() : comma;
    const std::string token = machines_arg->substr(at, end - at);
    // Validate against the real fleet: a typo'd id ("1x", "+1", an empty
    // token) must fail loudly, not silently run some other fleet.
    std::uint64_t number = 0;
    const auto& fleet = dram::paper_machines();
    const bool known =
        examples::parse_u64(token.c_str(), number) &&
        std::any_of(fleet.begin(), fleet.end(),
                    [&](const dram::machine_spec& m) {
                      return static_cast<std::uint64_t>(m.number) == number;
                    });
    if (!known) {
      std::fprintf(stderr,
                   "error: unknown machine id '%s' in --machines (paper "
                   "machines are 1..%zu)\n",
                   token.c_str(), fleet.size());
      return 2;
    }
    wanted.push_back(static_cast<int>(number));
    at = end + 1;
  }

  std::vector<api::job_spec> jobs;
  for (const dram::machine_spec& spec : dram::paper_machines()) {
    if (!wanted.empty() &&
        std::find(wanted.begin(), wanted.end(), spec.number) == wanted.end()) {
      continue;
    }
    jobs.push_back({spec, "dramdig", {}, /*seed=*/2026});
  }
  std::printf("uncovering %zu machines across the worker pool...\n",
              jobs.size());
  narrator progress(jobs);
  std::optional<store::mapping_store> store;
  if (!store_path.empty()) {
    store.emplace(store_path);
    // What a damaged store file cost (dropped records, or a cold start);
    // the log is off in this program, so say it here.
    if (!store->load_warning().empty()) {
      std::fprintf(stderr, "warning: %s\n", store->load_warning().c_str());
    }
  }
  api::service_config config;
  if (store) config.store = &*store;
  const auto outcomes = api::mapping_service(config).run(jobs, &progress);

  text_table table({"No.", "Microarch.", "DRAM", "Config.", "Bank functions",
                    "Rows", "Cols", "Time", "OK"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const dram::machine_spec& spec = jobs[i].machine;
    const api::tool_result& r = outcomes[i].result;
    table.add_row({spec.label(), spec.microarchitecture,
                   spec.dram_description(), spec.config_quadruple(),
                   r.mapping ? r.mapping->describe_functions() : "-",
                   r.mapping
                       ? dram::describe_bit_ranges(r.mapping->row_bits())
                       : "-",
                   r.mapping
                       ? dram::describe_bit_ranges(r.mapping->column_bits())
                       : "-",
                   fmt_duration_s(r.virtual_seconds),
                   r.verified ? "yes" : "NO"});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\n(bank functions are one valid GF(2) basis; 'OK' compares "
              "span + bit sets against ground truth)\n");
  if (!store_path.empty()) {
    // Machine-readable epilogue for the CI round-trip smoke: one line per
    // machine that a second invocation must reproduce byte-identically.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const api::tool_result& r = outcomes[i].result;
      std::printf("mapping %d: %s\n", jobs[i].machine.number,
                  r.mapping ? r.mapping->describe().c_str() : "(none)");
    }
  }
  bool ok = true;
  for (const api::job_outcome& outcome : outcomes) {
    ok = ok && outcome.result.success && outcome.result.verified;
  }
  // One save covers the whole batch, so every job whose update it lost
  // carries the same error: report it once.
  const auto lost = std::find_if(
      outcomes.begin(), outcomes.end(),
      [](const api::job_outcome& o) { return !o.store_error.empty(); });
  if (lost != outcomes.end()) {
    std::fprintf(stderr, "error: mapping store save failed: %s\n",
                 lost->store_error.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
