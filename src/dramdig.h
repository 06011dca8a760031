// Umbrella header: the public API surface of the DRAMDig reproduction.
//
//   #include "dramdig.h"
//
// The one-tool path — construct a device-under-test and run a tool on it:
//
//   dramdig::core::environment env(dramdig::dram::machine_by_number(2), 42);
//   dramdig::core::tool_result result = dramdig::core::dramdig_tool(env).run();
//
// The many-run path — every bench and multi-machine example goes through
// the job engine, which executes (machine, tool, options, seed) specs
// on side-by-side lanes with results bit-identical to a sequential loop:
//
//   dramdig::api::mapping_service service({.threads = 8});
//   auto outcomes = service.run(jobs);            // one per submission index
//   outcomes[0].result.to_json(writer);           // unified result schema
//
// Every tool's run() — core::dramdig_tool, baselines::drama_tool,
// baselines::xiao_tool — returns the same tool_result, metered by the same
// core::run_meter; the service adds the store and the grading against the
// simulated ground truth (`verified`), which a direct run() leaves false.
//
// Layering (each header is independently includable):
//   util     -> gf2 algebra, bit ops, rng, stats, histograms
//   dram     -> address-mapping model, machine presets, JEDEC specs
//   sim      -> memory controller, timing channel physics, rowhammer faults
//   os       -> physical memory, address spaces, pagemap
//   sysinfo  -> dmidecode/decode-dimms reports and parsing
//   timing   -> the SBDR timing primitive
//   core     -> the run record (tool_result, run_meter, phase events) and
//               the DRAMDig pipeline (this paper's contribution)
//   baselines-> DRAMA and Xiao et al. comparison tools
//   store    -> the fleet mapping store and its stored-mapping verifier
//   api      -> the built-in tool set (tool_names, tool_options) and the
//               concurrent mapping_service job engine with its grading
//               and FIFO daemon feed
//   rowhammer-> the hypothesis-driven hammer harness
#pragma once

#include "api/mapping_service.h" // IWYU pragma: export
#include "api/tool.h"            // IWYU pragma: export
#include "baselines/drama.h"     // IWYU pragma: export
#include "baselines/xiao.h"      // IWYU pragma: export
#include "core/dramdig.h"        // IWYU pragma: export
#include "core/environment.h"    // IWYU pragma: export
#include "core/measurement_plan.h"  // IWYU pragma: export
#include "dram/mapping.h"        // IWYU pragma: export
#include "dram/presets.h"        // IWYU pragma: export
#include "dram/spec.h"           // IWYU pragma: export
#include "rowhammer/harness.h"   // IWYU pragma: export
#include "sim/machine.h"         // IWYU pragma: export
#include "sim/profiles.h"        // IWYU pragma: export
#include "sysinfo/system_info.h" // IWYU pragma: export
#include "timing/channel.h"      // IWYU pragma: export
#include "util/json.h"           // IWYU pragma: export
#include "util/log.h"            // IWYU pragma: export
