#include "core/partition.h"

#include "core/classifier.h"
#include "util/expect.h"

namespace dramdig::core {

partition_outcome partition_pool(timing::channel& channel,
                                 std::vector<std::uint64_t> pool,
                                 unsigned bank_count, rng& r,
                                 const partition_config& config) {
  measurement_plan plan(channel);
  bank_classifier engine(plan);
  return engine.partition(std::move(pool), bank_count, r, config);
}

}  // namespace dramdig::core
