#include "core/function_detect.h"

#include <gtest/gtest.h>

#include <map>

#include "dram/presets.h"
#include "sim/virtual_clock.h"
#include "util/bitops.h"
#include "util/gf2.h"
#include "util/rng.h"

namespace dramdig::core {
namespace {

/// Synthesize noise-free piles straight from a ground-truth mapping: every
/// combination of the bank bits, grouped by true flat bank. This isolates
/// Algorithm 3 from the timing layer.
std::vector<std::vector<std::uint64_t>> piles_for(
    const dram::address_mapping& truth,
    const std::vector<unsigned>& bank_bits) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_bank;
  const std::uint64_t combos = std::uint64_t{1} << bank_bits.size();
  for (std::uint64_t c = 0; c < combos; ++c) {
    const std::uint64_t pa = scatter_bits(c, bank_bits);
    by_bank[truth.bank_of(pa)].push_back(pa);
  }
  std::vector<std::vector<std::uint64_t>> piles;
  for (auto& [bank, pile] : by_bank) piles.push_back(std::move(pile));
  return piles;
}

TEST(FunctionDetect, RecoversMachineNo1Functions) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 16, clock);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.numbering_ok);
  EXPECT_EQ(out.functions.size(), 4u);
  EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()));
}

TEST(FunctionDetect, RecoversWideChannelFunction) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(2);
  const std::vector<unsigned> bank_bits{7,  8,  9,  12, 13, 14, 15,
                                        16, 17, 18, 19, 20, 21};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 32, clock);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.functions.size(), 5u);
  EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()));
}

TEST(FunctionDetect, AllPaperMachinesRecoverable) {
  for (const auto& m : dram::paper_machines()) {
    sim::virtual_clock clock;
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    const auto out = detect_functions(piles_for(m.mapping, bank_bits),
                                      bank_bits, m.total_banks(), clock);
    ASSERT_TRUE(out.success) << m.label() << ": " << out.failure_reason;
    EXPECT_TRUE(out.numbering_ok) << m.label();
    EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()))
        << m.label();
    // Complete piles pin the candidate set to exactly the true span.
    EXPECT_EQ(out.raw_candidates,
              (std::size_t{1} << m.mapping.bank_functions().size()) - 1)
        << m.label();
  }
}

TEST(FunctionDetect, PrefersMinimalFunctions) {
  // Even though (14,15,18,19) is constant per bank, the reported basis
  // keeps the two-bit functions (the paper's priority rule).
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 16, clock);
  ASSERT_TRUE(out.success);
  for (std::uint64_t f : out.functions) {
    EXPECT_LE(std::popcount(f), 2);
  }
}

TEST(FunctionDetect, FailsWhenPilesLackInformation) {
  // A single pile cannot pin down any function set of full rank.
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  auto piles = piles_for(m.mapping, bank_bits);
  piles.resize(1);
  const auto out = detect_functions(piles, bank_bits, 16, clock);
  // With one pile every mask constant on it survives, giving far too many
  // independent candidates and no consistent numbering.
  EXPECT_FALSE(out.success && out.numbering_ok);
}

TEST(FunctionDetect, PollutedPileKillsDetection) {
  // One wrong-bank member erases the true functions from the
  // intersection — the reason partition re-verifies its positives.
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(4);
  const std::vector<unsigned> bank_bits{13, 14, 15, 16, 17, 18};
  auto piles = piles_for(m.mapping, bank_bits);
  piles[0].push_back(piles[1].front());
  const auto out = detect_functions(piles, bank_bits, 8, clock);
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.failure_reason.empty());
}

TEST(FunctionDetect, NumberingCountsAllBanks) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(4);
  const std::vector<unsigned> bank_bits{13, 14, 15, 16, 17, 18};
  const auto out =
      detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 8, clock);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.numbering_ok);
}

TEST(FunctionDetect, ChargesCpuTimeToClock) {
  sim::virtual_clock clock;
  const auto& m = dram::machine_by_number(1);
  const std::vector<unsigned> bank_bits{6, 14, 15, 16, 17, 18, 19};
  (void)detect_functions(piles_for(m.mapping, bank_bits), bank_bits, 16,
                         clock);
  EXPECT_GT(clock.now_ns(), 0u);
}

TEST(FunctionDetect, RecoversTrueSpanOnRandomPiles) {
  // Random mappings with up to 12 bank bits. Every other seed halves the
  // piles: half the banks still pin the difference space, so detection
  // must recover the true span either way.
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const auto m = dram::random_machine(30, 3 + seed % 3, seed);
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    if (bank_bits.size() > 12) continue;
    auto piles = piles_for(m.mapping, bank_bits);
    if (seed % 2 == 0 && piles.size() > 2) piles.resize(piles.size() / 2);
    sim::virtual_clock clock;
    const auto out = detect_functions(piles, bank_bits, m.total_banks(), clock);
    ASSERT_TRUE(out.success) << "seed " << seed << ": " << out.failure_reason;
    EXPECT_TRUE(out.numbering_ok) << "seed " << seed;
    EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()))
        << "seed " << seed;
  }
}

TEST(FunctionDetect, RandomMappingsProperty) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto m = dram::random_machine(32, 4, seed);
    sim::virtual_clock clock;
    std::vector<unsigned> bank_bits;
    for (std::uint64_t f : m.mapping.bank_functions()) {
      for (unsigned b : bits_of_mask(f)) bank_bits.push_back(b);
    }
    std::sort(bank_bits.begin(), bank_bits.end());
    bank_bits.erase(std::unique(bank_bits.begin(), bank_bits.end()),
                    bank_bits.end());
    const auto out = detect_functions(piles_for(m.mapping, bank_bits),
                                      bank_bits, m.total_banks(), clock);
    ASSERT_TRUE(out.success) << "seed " << seed;
    EXPECT_TRUE(gf2::same_span(out.functions, m.mapping.bank_functions()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace dramdig::core
