// Shared fixture for core-pipeline tests: a simulated machine with its OS,
// a mapped buffer and a calibrated timing channel — the state every
// pipeline stage expects to run on.
#pragma once

#include "core/domain_knowledge.h"
#include "core/environment.h"
#include "core/probe_util.h"
#include "sysinfo/system_info.h"
#include "timing/channel.h"

namespace dramdig::core::testing {

struct pipeline_fixture {
  environment env;
  domain_knowledge knowledge;
  const os::mapping_region& buffer;
  timing::channel channel;
  rng r;

  explicit pipeline_fixture(int machine_number, std::uint64_t seed = 7,
                            double buffer_fraction = 0.55)
      : env(dram::machine_by_number(machine_number), seed),
        knowledge(domain_knowledge::from_system_info(
            sysinfo::probe(env.spec()))),
        buffer(env.space().map_buffer(static_cast<std::uint64_t>(
            buffer_fraction *
            static_cast<double>(env.spec().memory_bytes)))),
        channel(env.mach().controller(),
                {.rounds_per_measurement = 1000,
                 .calibration_pairs = 1200},
                rng(seed ^ 0xc0ffee)),
        r(seed ^ 0x7e57) {
    channel.calibrate(sample_addresses(buffer, 1024, r));
  }
};

}  // namespace dramdig::core::testing
