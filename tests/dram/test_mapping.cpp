#include "dram/mapping.h"

#include <gtest/gtest.h>

#include <set>

#include "dram/presets.h"
#include "util/bitops.h"
#include "util/expect.h"
#include "util/rng.h"

namespace dramdig::dram {
namespace {

std::uint64_t fn(std::initializer_list<unsigned> bits) {
  std::uint64_t m = 0;
  for (unsigned b : bits) m |= std::uint64_t{1} << b;
  return m;
}

std::vector<unsigned> range(unsigned lo, unsigned hi) {
  std::vector<unsigned> v;
  for (unsigned b = lo; b <= hi; ++b) v.push_back(b);
  return v;
}

/// A small, fully checkable mapping: 16 MiB (24 bits), 4 banks, rows on
/// top, 13 column bits.
address_mapping tiny_mapping() {
  return address_mapping({fn({13, 16}), fn({14, 17})}, range(15, 23),
                         range(0, 12), 24);
}

TEST(Mapping, BankOfComputesXor) {
  const auto m = tiny_mapping();
  EXPECT_EQ(m.bank_of(0), 0u);
  EXPECT_EQ(m.bank_of(1ull << 13), 0b01u);
  EXPECT_EQ(m.bank_of(1ull << 16), 0b01u);
  EXPECT_EQ(m.bank_of((1ull << 13) | (1ull << 16)), 0b00u);
  EXPECT_EQ(m.bank_of(1ull << 14), 0b10u);
}

TEST(Mapping, RowAndColumnExtraction) {
  const auto m = tiny_mapping();
  const std::uint64_t pa = (3ull << 15) | 0x5a;
  EXPECT_EQ(m.row_of(pa), 3u);
  EXPECT_EQ(m.column_of(pa), 0x5au);
}

TEST(Mapping, DecodeBundlesFields) {
  const auto m = tiny_mapping();
  const std::uint64_t pa = (1ull << 15) | (1ull << 13) | 7;
  const dram_address a = m.decode(pa);
  EXPECT_EQ(a.row, 1u);
  EXPECT_EQ(a.column, 7u);
  EXPECT_EQ(a.flat_bank, 1u);
}

TEST(Mapping, PureBankBits) {
  const auto m = tiny_mapping();
  EXPECT_EQ(m.pure_bank_bits(), (std::vector<unsigned>{13, 14}));
}

TEST(Mapping, ThirtyTwoFunctionsViolateTheContract) {
  // bank_count() is 2^#functions as an unsigned: 31 functions is the
  // most it can count.
  std::vector<std::uint64_t> functions;
  for (unsigned b = 0; b < 31; ++b) functions.push_back(std::uint64_t{1} << b);
  EXPECT_EQ(address_mapping(functions, {}, {}, 40).bank_count(), 1u << 31);
  functions.push_back(std::uint64_t{1} << 31);
  EXPECT_THROW((void)address_mapping(functions, {}, {}, 40),
               contract_violation);
}

TEST(Mapping, TinyMappingIsBijective) {
  EXPECT_TRUE(tiny_mapping().is_bijective());
}

TEST(Mapping, NonBijectiveWhenFunctionDependsOnlyOnRowCols) {
  // A function using only row/column bits adds no bank information.
  const address_mapping bad({fn({15, 16}), fn({13, 14})}, range(15, 23),
                            range(0, 12), 24);
  EXPECT_FALSE(bad.is_bijective());
}

TEST(Mapping, NonBijectiveWhenCountsWrong) {
  // 2 functions but 3 unclassified bits: under-determined.
  const address_mapping bad({fn({13, 16}), fn({14, 17})}, range(16, 23),
                            range(0, 12), 24);
  EXPECT_FALSE(bad.is_bijective());
}

TEST(Mapping, NonBijectiveOnRowColumnOverlap) {
  const address_mapping bad({fn({13, 16}), fn({14, 17})}, range(12, 23),
                            range(0, 12), 24);
  EXPECT_FALSE(bad.is_bijective());
}

TEST(Mapping, EncodeInvertsDecodeExhaustivelyOnTinyMap) {
  // True bijectivity check over a 1 MiB slice of the space.
  const auto m = tiny_mapping();
  for (std::uint64_t pa = 0; pa < (1ull << 20); pa += 4097) {
    const dram_address a = m.decode(pa);
    const auto back = m.encode(a.flat_bank, a.row, a.column);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, pa);
  }
}

TEST(Mapping, EncodeRejectsOutOfRangeCoordinates) {
  const auto m = tiny_mapping();
  EXPECT_FALSE(m.encode(4, 0, 0).has_value());       // bank too big
  EXPECT_FALSE(m.encode(0, 1u << 9, 0).has_value()); // row too big
  EXPECT_FALSE(m.encode(0, 0, 1u << 13).has_value());
}

TEST(Mapping, EncodeOnNonBijectiveHypothesisFailsGracefully) {
  const address_mapping bad({fn({15, 16}), fn({13, 14})}, range(15, 23),
                            range(0, 12), 24);
  // Bank bit 0 is a pure row function: unreachable for fixed row.
  std::size_t failures = 0;
  for (std::uint64_t bank = 0; bank < 4; ++bank) {
    if (!bad.encode(bank, 0, 0).has_value()) ++failures;
  }
  EXPECT_GT(failures, 0u);
}

TEST(Mapping, EquivalenceUpToBasisChange) {
  const address_mapping a({fn({13, 16}), fn({14, 17})}, range(15, 23),
                          range(0, 12), 24);
  const address_mapping b({fn({13, 16}), fn({13, 14, 16, 17})}, range(15, 23),
                          range(0, 12), 24);
  EXPECT_TRUE(a.equivalent_to(b));
  EXPECT_TRUE(b.equivalent_to(a));
}

TEST(Mapping, NotEquivalentWhenRowBitsDiffer) {
  const address_mapping a({fn({13, 16}), fn({14, 17})}, range(15, 23),
                          range(0, 12), 24);
  // Same function span, but bit 15 claimed as a column instead of a row.
  std::vector<unsigned> cols = range(0, 12);
  cols.push_back(15);
  const address_mapping b({fn({13, 16}), fn({14, 17})}, range(16, 23), cols,
                          24);
  EXPECT_FALSE(a.equivalent_to(b));
}

TEST(Mapping, NotEquivalentWhenSpanDiffers) {
  const address_mapping a({fn({13, 16}), fn({14, 17})}, range(15, 23),
                          range(0, 12), 24);
  const address_mapping b({fn({13, 17}), fn({14, 16})}, range(15, 23),
                          range(0, 12), 24);
  EXPECT_FALSE(a.equivalent_to(b));
}

TEST(Mapping, DescribeFunctions) {
  EXPECT_EQ(describe_function(fn({14, 17})), "(14,17)");
  EXPECT_EQ(describe_function(fn({6})), "(6)");
}

TEST(Mapping, DescribeBitRanges) {
  EXPECT_EQ(describe_bit_ranges({0, 1, 2, 3, 4, 5, 7, 8}), "0-5,7-8");
  EXPECT_EQ(describe_bit_ranges({17}), "17");
  EXPECT_EQ(describe_bit_ranges({}), "-");
}

TEST(MappingProperty, EncodeDecodeRoundTripOnPaperMachines) {
  rng r(404);
  for (const machine_spec& m : paper_machines()) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t pa =
          r.below(m.memory_bytes) & ~std::uint64_t{63};
      const dram_address a = m.mapping.decode(pa);
      const auto back = m.mapping.encode(a.flat_bank, a.row, a.column);
      ASSERT_TRUE(back.has_value()) << m.label();
      EXPECT_EQ(*back, pa) << m.label();
    }
  }
}

TEST(MappingProperty, BankBalanceOnPaperMachines) {
  // A bijective linear mapping distributes addresses uniformly over banks.
  rng r(405);
  for (const machine_spec& m : paper_machines()) {
    std::vector<unsigned> hits(m.total_banks(), 0);
    const int samples = 4000;
    for (int i = 0; i < samples; ++i) {
      hits[m.mapping.bank_of(r.below(m.memory_bytes))]++;
    }
    const double expect_per_bank =
        static_cast<double>(samples) / m.total_banks();
    for (unsigned b = 0; b < m.total_banks(); ++b) {
      EXPECT_GT(hits[b], expect_per_bank * 0.5) << m.label() << " bank " << b;
      EXPECT_LT(hits[b], expect_per_bank * 1.6) << m.label() << " bank " << b;
    }
  }
}

}  // namespace
}  // namespace dramdig::dram
