// Shared fixture for core-pipeline tests: a simulated machine with its OS,
// a mapped buffer and a calibrated timing channel — the state every
// pipeline stage expects to run on — plus the per-run measurement state
// the pipeline builds on top of it.
#pragma once

#include "core/bit_probe.h"
#include "core/classifier.h"
#include "core/domain_knowledge.h"
#include "core/environment.h"
#include "core/measurement_plan.h"
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

/// One run's measurement state, built as dramdig_tool::run builds it: a
/// measurement plan on the fixture's channel, with the bank classifier and
/// the bit-probe engine on top, so every phase driven through it reuses
/// the verdicts the others accreted.
struct run_state {
  measurement_plan plan;
  bank_classifier classifier;
  bit_probe_engine probe;

  explicit run_state(pipeline_fixture& f)
      : plan(f.channel), classifier(plan), probe(plan, f.buffer) {}
};

}  // namespace dramdig::core::testing
