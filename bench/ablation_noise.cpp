// Ablation B: robustness of Algorithm 2's tolerances against machine
// noise — contamination sweep x partition parameters. Shows why the paper
// sets delta = 0.2 / per_threshold = 85% and why DRAMDig's verification
// keeps it deterministic where single-sample tools collapse.
//
// Exits 1 when the shipped window misses the truth on any run, so a CI run
// guards the tool as shipped under every noise profile.
#include <cstdio>
#include <string_view>

#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "util/table.h"

namespace {
using namespace dramdig;
}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("== Ablation: partition pile window vs machine noise ==\n\n");
  std::printf("Machine No.2 (wide channel function: each bank class holds "
              "~25%% same-row mates,\nso honest piles sit well below "
              "pool/#banks) under the three noise profiles.\nWindows are "
              "[1-lower, 1+upper] * pool/#banks.\n\n");
  text_table table({"Noise profile", "Window", "Success", "Avg time",
                    "Avg attempts", "Final pool"});

  const struct {
    const char* name;
    dram::timing_quality quality;
  } profiles[] = {
      {"clean (0.2% contamination)", dram::timing_quality::clean},
      {"mobile (0.5% + bursts)", dram::timing_quality::mobile},
      {"noisy (4% + heavy bursts)", dram::timing_quality::noisy},
  };
  const struct {
    const char* label;
    double lower, upper;
    bool shipped;
  } windows[] = {
      {"sym 0.05 (over-tight)", 0.05, 0.05, false},
      {"sym 0.20 (paper's delta)", 0.20, 0.20, false},
      {"asym 0.40/0.20 (shipped)", 0.40, 0.20, true},
      {"sym 0.60 (over-loose)", 0.60, 0.60, false},
  };
  unsigned shipped_failures = 0;

  for (const auto& profile : profiles) {
    for (const auto& w : windows) {
      int successes = 0;
      double time_sum = 0, attempts_sum = 0, pool_sum = 0;
      constexpr int kRuns = 3;
      for (int run = 0; run < kRuns; ++run) {
        dram::machine_spec spec = dram::machine_by_number(2);
        spec.quality = profile.quality;
        core::environment env(spec, 11000 + run);
        core::dramdig_config cfg{};
        cfg.partition.delta = w.upper;
        cfg.partition.delta_lower = w.lower;
        // With system information on, each attempt partitions once.
        unsigned attempts = 0;
        const auto report = core::dramdig_tool(env, cfg).run(
            [&](std::string_view phase, const core::phase_stats&) {
              attempts += phase == "partition";
            });
        const bool ok = report.success && report.mapping &&
                        report.mapping->equivalent_to(spec.mapping);
        successes += ok;
        if (w.shipped && !ok) ++shipped_failures;
        time_sum += report.virtual_seconds;
        attempts_sum += attempts;
        pool_sum += static_cast<double>(report.pool_size);
      }
      table.add_row({profile.name, w.label,
                     std::to_string(successes) + "/" + std::to_string(kRuns),
                     fmt_duration_s(time_sum / kRuns),
                     fmt_double(attempts_sum / kRuns, 1),
                     fmt_double(pool_sum / kRuns, 0)});
      std::fflush(stdout);
    }
  }
  std::printf("%s\n", table.render().c_str());
  if (shipped_failures > 0) {
    std::printf("FAIL: the shipped window missed the truth on %u run(s)\n",
                shipped_failures);
    return 1;
  }
  return 0;
}
