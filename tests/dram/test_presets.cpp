#include "dram/presets.h"

#include <gtest/gtest.h>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/gf2.h"

namespace dramdig::dram {
namespace {

TEST(Presets, NineMachinesInTableOrder) {
  const auto& ms = paper_machines();
  ASSERT_EQ(ms.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(ms[static_cast<std::size_t>(i)].number, i + 1);
  }
}

TEST(Presets, LookupByNumber) {
  EXPECT_EQ(machine_by_number(4).cpu_model, "i5-4210U");
  EXPECT_THROW((void)machine_by_number(10), contract_violation);
}

TEST(Presets, AllMappingsBijective) {
  for (const auto& m : paper_machines()) {
    EXPECT_TRUE(m.mapping.is_bijective()) << m.label();
  }
}

TEST(Presets, BankCountsMatchConfigQuadruple) {
  for (const auto& m : paper_machines()) {
    EXPECT_EQ(m.mapping.bank_count(), m.total_banks()) << m.label();
  }
}

TEST(Presets, MemoryAccounting) {
  // row bits + column bits + bank functions account for every address bit.
  for (const auto& m : paper_machines()) {
    EXPECT_EQ(m.mapping.row_bits().size() + m.mapping.column_bits().size() +
                  m.mapping.bank_functions().size(),
              log2_exact(m.memory_bytes))
        << m.label();
  }
}

TEST(Presets, TableIIGenerations) {
  for (const auto& m : paper_machines()) {
    const bool ddr4_expected = m.number >= 6;
    EXPECT_EQ(m.generation == ddr_generation::ddr4, ddr4_expected)
        << m.label();
  }
}

TEST(Presets, MachineNo1ExactTableRow) {
  const auto& m = machine_by_number(1);
  EXPECT_EQ(m.microarchitecture, "Sandy Bridge");
  EXPECT_EQ(m.memory_bytes, 8ull << 30);
  EXPECT_EQ(m.config_quadruple(), "(2, 1, 1, 8)");
  EXPECT_EQ(m.mapping.describe_functions(), "(6), (14,17), (15,18), (16,19)");
  EXPECT_EQ(describe_bit_ranges(m.mapping.row_bits()), "17-32");
  EXPECT_EQ(describe_bit_ranges(m.mapping.column_bits()), "0-5,7-13");
}

TEST(Presets, MachineNo2WideChannelFunction) {
  const auto& m = machine_by_number(2);
  const std::uint64_t wide = mask_of_bits({7, 8, 9, 12, 13, 18, 19});
  bool found = false;
  for (std::uint64_t f : m.mapping.bank_functions()) found |= f == wide;
  EXPECT_TRUE(found);
}

TEST(Presets, MachineNo5RowsExtendTo33) {
  // The documented Table II typo correction: 16 GiB needs rows up to 33.
  const auto& m = machine_by_number(5);
  EXPECT_EQ(describe_bit_ranges(m.mapping.row_bits()), "18-33");
  EXPECT_TRUE(m.mapping.is_bijective());
}

TEST(Presets, MachineNo6MatchesTableII) {
  const auto& m = machine_by_number(6);
  EXPECT_EQ(m.mapping.describe_functions(),
            "(7,14), (15,19), (16,20), (17,21), (18,22), (8,9,12,13,18,19)");
  EXPECT_EQ(describe_bit_ranges(m.mapping.row_bits()), "19-33");
  EXPECT_EQ(describe_bit_ranges(m.mapping.column_bits()), "0-7,9-13");
}

TEST(Presets, MachinesSixAndNineShareMapping) {
  EXPECT_TRUE(machine_by_number(6).mapping.equivalent_to(
      machine_by_number(9).mapping));
}

TEST(Presets, WidestFunctionRuleHoldsOnAllMachines) {
  // Empirical observation the fine-grained step relies on: when a strictly
  // widest function exists, its lowest bit is not a column bit.
  for (const auto& m : paper_machines()) {
    const auto& funcs = m.mapping.bank_functions();
    std::uint64_t widest = 0;
    int pop = 0;
    bool unique = false;
    for (std::uint64_t f : funcs) {
      const int p = std::popcount(f);
      if (p > pop) {
        pop = p;
        widest = f;
        unique = true;
      } else if (p == pop) {
        unique = false;
      }
    }
    if (!unique) continue;
    const unsigned lowest = bits_of_mask(widest).front();
    const auto& cols = m.mapping.column_bits();
    EXPECT_FALSE(std::binary_search(cols.begin(), cols.end(), lowest))
        << m.label();
  }
}

TEST(Presets, NoisyUnitsAreTheTwoOldMobiles) {
  for (const auto& m : paper_machines()) {
    const bool noisy = m.quality == timing_quality::noisy;
    EXPECT_EQ(noisy, m.number == 3 || m.number == 7) << m.label();
  }
}

TEST(Presets, VulnerabilityOrderingMatchesTableIII) {
  // No.2 floods, No.1 moderate, No.5 barely flips.
  const auto& v1 = machine_by_number(1).vulnerability;
  const auto& v2 = machine_by_number(2).vulnerability;
  const auto& v5 = machine_by_number(5).vulnerability;
  EXPECT_GT(v2.double_sided_flip_chance, v1.double_sided_flip_chance);
  EXPECT_GT(v1.double_sided_flip_chance, v5.double_sided_flip_chance);
  // Double-sided pressure dominates single-sided on every machine.
  for (const auto& m : paper_machines()) {
    EXPECT_GT(m.vulnerability.double_sided_flip_chance,
              5 * m.vulnerability.single_sided_flip_chance)
        << m.label();
  }
}

TEST(Presets, DramDescriptionFormat) {
  EXPECT_EQ(machine_by_number(1).dram_description(), "DDR3, 8GiB");
  EXPECT_EQ(machine_by_number(6).dram_description(), "DDR4, 16GiB");
}

TEST(Presets, EveryFlatBankEncodesAndDecodesBack) {
  // Every flat bank of the configuration quadruple is reachable: an
  // address built for it decodes back to the same flat bank.
  for (const auto& m : paper_machines()) {
    for (std::uint64_t flat = 0; flat < m.total_banks(); ++flat) {
      const auto pa = m.mapping.encode(flat, 1, 0);
      ASSERT_TRUE(pa.has_value());
      const dram_address a = m.mapping.decode(*pa);
      EXPECT_EQ(a.flat_bank, flat) << m.label();
    }
  }
}

TEST(RandomMachine, ProducesValidMachines) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const unsigned bits = 30 + seed % 5;
    const unsigned funcs = 3 + seed % 4;
    const machine_spec m = random_machine(bits, funcs, seed);
    EXPECT_TRUE(m.mapping.is_bijective()) << "seed " << seed;
    EXPECT_EQ(m.mapping.bank_count(), m.total_banks()) << "seed " << seed;
    EXPECT_EQ(m.mapping.bank_functions().size(), funcs);
    EXPECT_EQ(m.memory_bytes, 1ull << bits);
  }
}

TEST(RandomMachine, DeterministicPerSeed) {
  const machine_spec a = random_machine(32, 4, 77);
  const machine_spec b = random_machine(32, 4, 77);
  EXPECT_TRUE(a.mapping.equivalent_to(b.mapping));
}

TEST(RandomMachine, RejectsBadArguments) {
  EXPECT_THROW((void)random_machine(20, 4, 1), contract_violation);
  EXPECT_THROW((void)random_machine(32, 9, 1), contract_violation);
}

}  // namespace
}  // namespace dramdig::dram
