// The built-in tool set and the unified tool interface: name round-trips,
// the factory contract, options validation, and the adapters' result
// schema.
#include "api/tool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

TEST(ToolRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)make_tool("seaborn"), contract_violation);
}

TEST(ToolRegistry, RoundTripEveryToolRunsSuccessfully) {
  // Machine No.1 is in every tool's happy path: DRAMDig recovers it, DRAMA
  // completes on the clean desktop, and it is a Sandy Bridge template
  // machine for Xiao et al.
  const tool_options options = tool_options{}.with_drama(fast_drama());
  for (const std::string& name : tool_names()) {
    const auto tool = make_tool(name, options);
    ASSERT_NE(tool, nullptr) << name;
    EXPECT_EQ(tool->describe().name, name);
    core::environment env(dram::machine_by_number(1), 5);
    const tool_result result = tool->run(env);
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
  const tool_result result = make_tool("dramdig")->run(env);
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

}  // namespace
}  // namespace dramdig::api
