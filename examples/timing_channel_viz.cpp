// Visualize the row-buffer timing channel: the latency histogram of random
// address pairs on a simulated machine, with the calibrated threshold.
// The bimodal shape — fast mode (row hits / different banks) vs slow mode
// (row-buffer conflicts) — is the entire signal every tool in this
// repository is built on.
//
//   $ timing_channel_viz [machine_number=1] [seed=5]
#include <cstdio>
#include <cstdlib>

#include "core/environment.h"
#include "core/probe_util.h"
#include "dram/presets.h"
#include "timing/channel.h"
#include "util/histogram.h"
#include "cli_args.h"

int main(int argc, char** argv) {
  using namespace dramdig;
  int machine_no = 1;
  std::uint64_t seed = 5;
  examples::parse_machine_args(
      argc, argv, "timing_channel_viz [machine_number=1 (1-9)] [seed=5]",
      machine_no, &seed);
  const dram::machine_spec& spec = dram::machine_by_number(machine_no);

  core::environment env(spec, seed);
  rng r(seed);
  const auto& buffer =
      env.space().map_buffer(spec.memory_bytes / 4);
  timing::channel channel(env.mach().controller(), {}, r.fork());
  const double threshold =
      channel.calibrate(core::sample_addresses(buffer, 2048, r));

  histogram h(100.0, 500.0, 40);
  h.add_all(channel.calibration_samples());

  std::printf("Machine %s (%s) — pair-latency histogram, %zu samples\n\n",
              spec.label().c_str(), spec.microarchitecture.c_str(),
              channel.calibration_samples().size());
  std::printf("%s", h.ascii().c_str());
  std::printf("\ncalibrated threshold: %.1f ns\n", threshold);
  std::printf("fast mode = row hits / different banks; slow mode = row-buffer"
              " conflicts (SBDR)\n");
  return 0;
}
