#include "api/tool.h"

#include <utility>

namespace dramdig::api {

tool_options& tool_options::with_dramdig(core::dramdig_config cfg) {
  core::check_config(cfg);
  dramdig_ = std::move(cfg);
  return *this;
}

tool_options& tool_options::with_drama(baselines::drama_config cfg) {
  baselines::check_config(cfg);
  drama_ = std::move(cfg);
  return *this;
}

tool_options& tool_options::with_tool_seed(std::uint64_t seed) {
  dramdig_.tool_seed = seed;
  drama_.tool_seed = seed;
  xiao_.tool_seed = seed;
  return *this;
}

const std::vector<std::string>& tool_names() {
  static const std::vector<std::string> names{"drama", "dramdig", "xiao"};
  return names;
}

}  // namespace dramdig::api
