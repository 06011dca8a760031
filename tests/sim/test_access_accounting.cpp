// Measurement accounting: the alternating 2*rounds access loop of a pair
// measurement visits at most three row-buffer situations, so the
// controller tallies it in closed form. With zero noise the observed mean
// and the virtual clock must equal the hand-summed per-access values —
// each access charging its own truncated integer — on the default, a
// fractional-timing and a heavy-burst preset, through both the scalar and
// the batch entry points.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dram/presets.h"
#include "sim/memory_controller.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::sim {
namespace {

/// Non-integral charge values stress the integer per-access truncation.
timing_model fractional_timings() {
  timing_model odd{};
  odd.row_hit_ns = 164.37;
  odd.row_closed_ns = 249.91;
  odd.row_conflict_ns = 331.13;
  odd.clflush_ns = 54.49;
  odd.loop_overhead_ns = 15.77;
  return odd;
}

/// Bursty contamination reads the burst schedule off the virtual clock.
timing_model heavy_bursts() {
  timing_model bursty{};
  bursty.burst_mean_interval_s = 0.001;
  bursty.burst_mean_duration_s = 2.0;
  bursty.burst_contamination_factor = 40.0;
  return bursty;
}

void expect_hand_summed_charges(timing_model timing, const char* label) {
  SCOPED_TRACE(label);
  timing.access_noise_sigma_ns = 0.0;
  timing.contamination_chance = 0.0;
  const auto& spec = dram::machine_by_number(1);
  const auto charge = [&](double base) {
    return static_cast<std::uint64_t>(base + timing.clflush_ns +
                                      timing.loop_overhead_ns);
  };
  const unsigned rounds = 10;
  const std::uint64_t steady = 2ull * rounds - 1;

  // Fresh controller: both banks precharged. Same-bank-different-row pair
  // (bit 20 is row-only on No.1): first access closed, second conflict,
  // rest conflicts.
  const addr_pair sbdr{0, 1ull << 20};
  const double want =
      (timing.row_closed_ns + steady * timing.row_conflict_ns) / (2.0 * rounds);
  const std::uint64_t want_ns =
      charge(timing.row_closed_ns) + steady * charge(timing.row_conflict_ns);
  // Cross-bank pair (bit 6 switches channels on No.1): the fresh bank pays
  // one activate, the bank left open by the previous measurement hits
  // immediately, and the steady state is all hits.
  const addr_pair cross{1ull << 6, 1ull << 20};
  const double want_cross =
      (timing.row_closed_ns + steady * timing.row_hit_ns) / (2.0 * rounds);
  const std::uint64_t want_cross_ns =
      charge(timing.row_closed_ns) + steady * charge(timing.row_hit_ns);

  virtual_clock clock;
  memory_controller mc(spec.mapping, timing, clock, rng(1));
  const auto m = mc.measure_pair(sbdr.first, sbdr.second, rounds);
  EXPECT_DOUBLE_EQ(m.mean_access_ns, want);
  EXPECT_EQ(clock.now_ns(), want_ns);
  const auto c = mc.measure_pair(cross.first, cross.second, rounds);
  EXPECT_DOUBLE_EQ(c.mean_access_ns, want_cross);
  EXPECT_EQ(clock.now_ns(), want_ns + want_cross_ns);
  EXPECT_EQ(mc.measurement_count(), 2u);
  EXPECT_EQ(mc.access_count(), 4ull * rounds);

  // The batch tail folds the same per-measurement charges.
  virtual_clock batch_clock;
  memory_controller batched(spec.mapping, timing, batch_clock, rng(1));
  const std::vector<addr_pair> pairs{sbdr, cross};
  const auto got = batched.measure_pairs(pairs, rounds);
  EXPECT_DOUBLE_EQ(got[0].mean_access_ns, want);
  EXPECT_DOUBLE_EQ(got[1].mean_access_ns, want_cross);
  EXPECT_EQ(batch_clock.now_ns(), want_ns + want_cross_ns);
  EXPECT_EQ(batched.access_count(), 4ull * rounds);
}

TEST(AccessAccounting, TransientFirstAccessesAreCharged) {
  expect_hand_summed_charges(timing_model{}, "default timings");
  expect_hand_summed_charges(fractional_timings(), "fractional timings");
  expect_hand_summed_charges(heavy_bursts(), "heavy bursts");
}

}  // namespace
}  // namespace dramdig::sim
