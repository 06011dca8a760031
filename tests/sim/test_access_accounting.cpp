// Measurement accounting: the alternating 2*rounds access loop of a pair
// measurement visits at most three row-buffer situations, so the
// controller tallies it in closed form. With zero noise the observed mean
// and the virtual clock must equal the per-access values — each access
// charging its own truncated integer — summed by hand for two pairs on the
// default, a fractional-timing and a heavy-burst preset, and summed by an
// access-by-access walk over thousands of random pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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
  const std::vector<addr_pair> pairs{sbdr, cross};
  const auto got = mc.measure_pairs(pairs, rounds);
  EXPECT_DOUBLE_EQ(got[0].mean_access_ns, want);
  EXPECT_DOUBLE_EQ(got[1].mean_access_ns, want_cross);
  EXPECT_EQ(clock.now_ns(), want_ns + want_cross_ns);
  EXPECT_EQ(mc.measurement_count(), 2u);
  EXPECT_EQ(mc.access_count(), 4ull * rounds);
}

TEST(AccessAccounting, TransientFirstAccessesAreCharged) {
  expect_hand_summed_charges(timing_model{}, "default timings");
  expect_hand_summed_charges(fractional_timings(), "fractional timings");
  expect_hand_summed_charges(heavy_bursts(), "heavy bursts");
}

/// Walks every access of every pair's alternating loop against its own
/// row-buffer table, keyed by the mapping's decoded bank and row, and
/// charges each access its own latency and truncated clock charge.
class per_access_reference {
 public:
  per_access_reference(const dram::address_mapping& truth,
                       const timing_model& timing)
      : truth_(truth), timing_(timing) {}

  /// Mean per-access latency of one measurement; advances now_ns().
  double measure(const addr_pair& pair, unsigned rounds) {
    double sum_ns = 0.0;
    for (unsigned r = 0; r < rounds; ++r) {
      sum_ns += access(pair.first);
      sum_ns += access(pair.second);
    }
    return sum_ns / (2.0 * rounds);
  }

  [[nodiscard]] std::uint64_t now_ns() const { return now_ns_; }

 private:
  double access(std::uint64_t addr) {
    const dram::dram_address at = truth_.decode(addr);
    const auto open = open_rows_.find(at.flat_bank);
    double latency_ns = timing_.row_closed_ns;
    if (open != open_rows_.end()) {
      latency_ns = open->second == at.row ? timing_.row_hit_ns
                                          : timing_.row_conflict_ns;
    }
    open_rows_[at.flat_bank] = at.row;
    now_ns_ += static_cast<std::uint64_t>(latency_ns + timing_.clflush_ns +
                                          timing_.loop_overhead_ns);
    return latency_ns;
  }

  const dram::address_mapping& truth_;
  timing_model timing_;
  std::map<std::uint64_t, std::uint64_t> open_rows_;  ///< bank -> open row
  std::uint64_t now_ns_ = 0;
};

void expect_per_access_loop(timing_model timing, const char* label) {
  SCOPED_TRACE(label);
  timing.access_noise_sigma_ns = 0.0;
  timing.contamination_chance = 0.0;
  const auto& spec = dram::machine_by_number(1);
  // A third of the pairs share a bank across rows (bit 20 is row-only on
  // No.1), a third share a row (bit 8 is a column bit), the rest are
  // random. Lines come from the lowest MiB, eight rows of each bank, so
  // first accesses meet closed, hit and conflicting row buffers alike.
  rng draw(29);
  const auto line = [&] { return draw.below(1ull << 20) & ~63ull; };
  std::vector<addr_pair> pairs;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t p = line();
    switch (i % 3) {
      case 0: pairs.emplace_back(p, p ^ (1ull << 20)); break;
      case 1: pairs.emplace_back(p, p ^ (1ull << 8)); break;
      default: pairs.emplace_back(p, line()); break;
    }
  }

  virtual_clock clock;
  memory_controller mc(spec.mapping, timing, clock, rng(1));
  per_access_reference ref(spec.mapping, timing);
  // rounds == 1 has no steady-state accesses at all.
  for (const unsigned rounds : {1u, 7u}) {
    const auto got = mc.measure_pairs(pairs, rounds);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const double want = ref.measure(pairs[i], rounds);
      ASSERT_NEAR(got[i].mean_access_ns, want, 1e-9) << rounds << " " << i;
    }
    EXPECT_EQ(clock.now_ns(), ref.now_ns()) << rounds;
  }
}

TEST(AccessAccounting, ClosedFormMatchesPerAccessLoop) {
  expect_per_access_loop(timing_model{}, "default timings");
  expect_per_access_loop(fractional_timings(), "fractional timings");
}

}  // namespace
}  // namespace dramdig::sim
