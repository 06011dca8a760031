// The run meter on a bare memory controller: scoped phase occurrences
// stream their own deltas and aggregate by name, and the run's totals span
// everything since construction, inside and between phases.
#include "core/run_record.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::core {
namespace {

struct bare_controller {
  sim::virtual_clock clock;
  sim::memory_controller mc{dram::machine_by_number(1).mapping, {}, clock,
                            rng(3)};

  /// `n` pair measurements (each also advances the clock and accesses).
  void measure(unsigned n) {
    (void)mc.measure_pairs(std::vector<sim::addr_pair>(n, {0, 1u << 17}), 100);
  }
};

TEST(RunMeter, ScopesStreamAggregateAndTotal) {
  bare_controller c;
  c.measure(2);  // before the meter: not the run's cost
  c.clock.advance_ns(1000);

  struct event {
    std::string name;
    phase_stats delta;
  };
  std::vector<event> events;
  run_meter meter(c.mc, [&](std::string_view name, const phase_stats& d) {
    events.push_back({std::string(name), d});
  });

  const std::uint64_t t0 = c.clock.now_ns();
  const std::uint64_t a0 = c.mc.access_count();
  std::vector<phase_stats> expected;
  const auto occurrence = [&](const char* name, unsigned measurements,
                              std::uint64_t idle_ns, std::uint64_t pairs) {
    const std::uint64_t start = c.clock.now_ns();
    {
      run_meter::scope s(meter, name);
      c.measure(measurements);
      c.clock.advance_ns(idle_ns);
      s.add_pairs(pairs);
    }
    expected.push_back(
        {c.clock.seconds_since(start), measurements, pairs});
  };
  occurrence("alpha", 3, 500, 7);
  c.measure(1);  // between phases: only the totals see it
  c.clock.advance_ns(250);
  occurrence("beta", 2, 0, 0);
  occurrence("alpha", 4, 2'000'000, 5);

  // Each streamed delta is its own scope's cost, in closing order.
  ASSERT_EQ(events.size(), 3u);
  const std::vector<std::string> names{"alpha", "beta", "alpha"};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, names[i]);
    EXPECT_EQ(events[i].delta.seconds, expected[i].seconds) << i;
    EXPECT_EQ(events[i].delta.measurements, expected[i].measurements) << i;
    EXPECT_EQ(events[i].delta.pairs_used, expected[i].pairs_used) << i;
  }

  // Repeated names aggregate; an unseen name reads as zeros.
  const tool_phase alpha = meter.phase("alpha");
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.seconds, expected[0].seconds + expected[2].seconds);
  EXPECT_EQ(alpha.measurements, 7u);
  EXPECT_EQ(alpha.pairs_used, 12u);
  EXPECT_EQ(meter.phase("beta").measurements, 2u);
  const tool_phase none = meter.phase("gamma");
  EXPECT_EQ(none.name, "gamma");
  EXPECT_EQ(none.seconds, 0.0);
  EXPECT_EQ(none.measurements, 0u);

  // The totals span the whole run, gaps between phases included.
  const run_totals t = meter.totals();
  EXPECT_EQ(t.measurements, 10u);
  EXPECT_EQ(t.seconds, c.clock.seconds_since(t0));
  EXPECT_EQ(t.accesses, c.mc.access_count() - a0);
  EXPECT_GT(t.accesses, 0u);

  tool_result out;
  meter.finish(out);
  EXPECT_EQ(out.virtual_seconds, t.seconds);
  EXPECT_EQ(out.measurement_count, t.measurements);
  EXPECT_EQ(out.access_count, t.accesses);
}

}  // namespace
}  // namespace dramdig::core
