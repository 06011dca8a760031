// The built-in tool set and the run record every tool returns: every tool
// runs through the service, options validation, the record's JSON schema,
// and one meter's stream summing to every tool's record.
#include "api/tool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "api/mapping_service.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "util/expect.h"

namespace dramdig::api {
namespace {

/// Cheap DRAMA configuration (the default runs for virtual hours).
baselines::drama_config fast_drama() {
  baselines::drama_config cfg{};
  cfg.pool_size = 2000;
  cfg.calibration_pairs = 300;
  cfg.max_trials = 6;
  return cfg;
}

TEST(ToolRegistry, ListsTheBuiltInTools) {
  EXPECT_EQ(tool_names(),
            (std::vector<std::string>{"drama", "dramdig", "xiao"}));
}

TEST(ToolRegistry, RoundTripEveryToolRunsSuccessfully) {
  // Machine No.1 is in every tool's happy path: DRAMDig recovers it, DRAMA
  // completes on the clean desktop, and it is a Sandy Bridge template
  // machine for Xiao et al.
  const tool_options options = tool_options{}.with_drama(fast_drama());
  std::vector<job_spec> jobs;
  for (const std::string& name : tool_names()) {
    jobs.push_back({dram::machine_by_number(1), name, options, 5});
  }
  const auto outcomes = mapping_service({.threads = 1}).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string& name = jobs[i].tool;
    const tool_result& result = outcomes[i].result;
    EXPECT_EQ(result.tool, name);
    EXPECT_TRUE(result.success) << name << ": " << result.failure_reason;
    EXPECT_TRUE(result.verified) << name;
    ASSERT_TRUE(result.mapping.has_value()) << name;
    EXPECT_GT(result.measurement_count, 0u) << name;
    EXPECT_GT(result.access_count, 0u) << name;
    EXPECT_GT(result.virtual_seconds, 0.0) << name;
    EXPECT_FALSE(result.phases.empty()) << name;
  }
}

TEST(ToolOptions, SettersValidateEagerly) {
  core::dramdig_config bad_dig{};
  bad_dig.buffer_fraction = 0.0;
  EXPECT_THROW(tool_options{}.with_dramdig(bad_dig), contract_violation);
  bad_dig.buffer_fraction = 1.5;
  EXPECT_THROW(tool_options{}.with_dramdig(bad_dig), contract_violation);

  bad_dig = {};
  bad_dig.max_attempts = 0;
  EXPECT_THROW(tool_options{}.with_dramdig(bad_dig), contract_violation);

  baselines::drama_config bad_drama{};
  bad_drama.pool_size = 2;
  EXPECT_THROW(tool_options{}.with_drama(bad_drama), contract_violation);

  // The tool constructors call the same contract check, so a config that
  // bypasses the builder fails before any measurement.
  core::environment env(dram::machine_by_number(1), 1);
  EXPECT_THROW((void)baselines::drama_tool(env, bad_drama),
               contract_violation);
}

TEST(ToolOptions, ToolSeedReseedsEveryConfig) {
  const tool_options options = tool_options{}.with_tool_seed(99);
  EXPECT_EQ(options.dramdig().tool_seed, 99u);
  EXPECT_EQ(options.drama().tool_seed, 99u);
  EXPECT_EQ(options.xiao().tool_seed, 99u);
}

TEST(ToolResult, JsonCarriesTheUnifiedSchema) {
  core::environment env(dram::machine_by_number(4), 42);
  const tool_result result = core::dramdig_tool(env).run();
  const std::string json = result.to_json_string();
  for (const char* key :
       {"\"tool\"", "\"success\"", "\"verified\"", "\"outcome\"",
        "\"failure_reason\"", "\"virtual_seconds\"", "\"measurement_count\"",
        "\"measurements_saved\"", "\"access_count\"", "\"mapping\"",
        "\"functions\"", "\"row_bits\"", "\"column_bits\"", "\"phases\"",
        "\"calibration\"", "\"pairs_used\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

TEST(ToolResult, JsonRendersMissingMappingAsNull) {
  tool_result result;
  result.tool = "dramdig";
  result.failure_reason = "synthetic";
  const std::string json = result.to_json_string();
  EXPECT_NE(json.find("\"mapping\": null"), std::string::npos) << json;
}

/// One tool run on one machine, and what its event stream must look like.
struct meter_case {
  std::string tool;
  int machine = 1;
  /// Distinct event names in first-occurrence order (probe rounds aside).
  std::vector<std::string> stages;
};

void PrintTo(const meter_case& c, std::ostream* os) {
  *os << c.tool << " No." << c.machine;
}

/// Collects one job's streamed phase events.
class event_recorder : public progress_observer {
 public:
  void on_job_phase(std::size_t, std::string_view phase,
                    const core::phase_stats& delta) override {
    if (phase.starts_with("probe:")) {
      // Designed rounds carry votes only: their cost is the owning phase's.
      EXPECT_EQ(delta.measurements, 0u);
      EXPECT_EQ(delta.seconds, 0.0);
      return;
    }
    if (std::find(stages.begin(), stages.end(), phase) == stages.end()) {
      stages.emplace_back(phase);
    }
    seconds += delta.seconds;
    measurements += delta.measurements;
  }

  std::vector<std::string> stages;
  double seconds = 0.0;
  std::uint64_t measurements = 0;
};

class ToolMeter : public ::testing::TestWithParam<meter_case> {};

TEST_P(ToolMeter, StreamedDeltasSumToTheRecord) {
  // Every tool meters through one run_meter: the deltas it streams cover
  // the whole run, so they sum to the record's totals whatever path the
  // run takes (DRAMA's trials, Xiao's template and its stall).
  const meter_case& c = GetParam();
  event_recorder events;
  const auto outcomes = mapping_service({.threads = 1}).run(
      {{dram::machine_by_number(c.machine), c.tool,
        tool_options{}.with_drama(fast_drama()), 13}},
      &events);
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  const tool_result& r = outcomes[0].result;
  EXPECT_EQ(events.stages, c.stages);
  EXPECT_EQ(events.measurements, r.measurement_count);
  EXPECT_NEAR(events.seconds, r.virtual_seconds, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    EveryTool, ToolMeter,
    ::testing::Values(
        meter_case{"dramdig", 1,
                   {"calibration", "coarse", "selection", "partition",
                    "functions", "fine"}},
        meter_case{"drama", 1, {"trial"}},
        meter_case{"xiao", 4, {"calibration", "template"}},
        meter_case{"xiao", 6,
                   {"calibration", "row-scan", "bit-scan", "stride-scan",
                    "stall"}}),
    [](const ::testing::TestParamInfo<meter_case>& info) {
      return info.param.tool + "_No" + std::to_string(info.param.machine);
    });

}  // namespace
}  // namespace dramdig::api
