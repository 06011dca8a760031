#include "util/bitops.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace dramdig {
namespace {

TEST(Bitops, ParityOfEmptyMaskIsZero) {
  EXPECT_EQ(parity(0xdeadbeef, 0), 0u);
}

TEST(Bitops, ParitySingleBit) {
  EXPECT_EQ(parity(0b100, 0b100), 1u);
  EXPECT_EQ(parity(0b011, 0b100), 0u);
}

TEST(Bitops, ParityIsXorOfSelectedBits) {
  // (14,17)-style bank function.
  const std::uint64_t mask = (1ull << 14) | (1ull << 17);
  EXPECT_EQ(parity(1ull << 14, mask), 1u);
  EXPECT_EQ(parity(1ull << 17, mask), 1u);
  EXPECT_EQ(parity((1ull << 14) | (1ull << 17), mask), 0u);
}

TEST(Bitops, ParityIgnoresBitsOutsideMask) {
  const std::uint64_t mask = 0b1010;
  EXPECT_EQ(parity(0b0101, mask), 0u);
  EXPECT_EQ(parity(0b1111, mask), 0u);
  EXPECT_EQ(parity(0b0111, mask), 1u);  // only bit 1 is selected
}

TEST(Bitops, BitReadsSingleBits) {
  EXPECT_TRUE(bit(0b100, 2));
  EXPECT_FALSE(bit(0b100, 1));
  EXPECT_FALSE(bit(0, 63));
}

TEST(Bitops, MaskOfBitsBuildsUnion) {
  EXPECT_EQ(mask_of_bits({0, 3, 5}), 0b101001u);
  EXPECT_EQ(mask_of_bits({}), 0u);
}

TEST(Bitops, MaskOfBitsRejectsOutOfRange) {
  EXPECT_THROW((void)mask_of_bits({64}), contract_violation);
}

TEST(Bitops, BitsOfMaskRoundTrips) {
  const std::vector<unsigned> bits{1, 7, 13, 63};
  EXPECT_EQ(bits_of_mask(mask_of_bits(bits)), bits);
  EXPECT_TRUE(bits_of_mask(0).empty());
}

TEST(Bitops, GatherBitsExtractsDenseIndex) {
  // Row extraction: bits {17, 18, 19} of an address become a 3-bit index.
  const std::vector<unsigned> row_bits{17, 18, 19};
  EXPECT_EQ(gather_bits(1ull << 17, row_bits), 0b001u);
  EXPECT_EQ(gather_bits(1ull << 19, row_bits), 0b100u);
  EXPECT_EQ(gather_bits((1ull << 17) | (1ull << 19), row_bits), 0b101u);
}

TEST(Bitops, ScatterBitsInvertsGather) {
  const std::vector<unsigned> bits{3, 9, 21, 33};
  for (std::uint64_t dense = 0; dense < 16; ++dense) {
    EXPECT_EQ(gather_bits(scatter_bits(dense, bits), bits), dense);
  }
}

TEST(Bitops, GatherScatterWithEmptyBitList) {
  EXPECT_EQ(gather_bits(0xffffu, {}), 0u);
  EXPECT_EQ(scatter_bits(0xffffu, {}), 0u);
}

TEST(Bitops, Log2ExactOnPowersOfTwo) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
  EXPECT_EQ(log2_exact(1ull << 33), 33u);
}

TEST(Bitops, Log2ExactRejectsNonPowers) {
  EXPECT_THROW((void)log2_exact(0), contract_violation);
  EXPECT_THROW((void)log2_exact(3), contract_violation);
  EXPECT_THROW((void)log2_exact(4097), contract_violation);
}

// --- decode_banks: the dispatched (possibly SIMD) kernel vs the portable
// scalar kernel vs the per-bit parity definition. The two kernels must be
// exact bit operations, so equality is == — no tolerance.

/// Reference semantics, straight from the spec: out[i] bit f is
/// parity(addrs[i], functions[f]).
[[nodiscard]] std::vector<std::uint64_t> decode_banks_reference(
    const std::vector<std::uint64_t>& addrs,
    const std::vector<std::uint64_t>& functions) {
  std::vector<std::uint64_t> out(addrs.size(), 0);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    for (std::size_t f = 0; f < functions.size(); ++f) {
      out[i] |= static_cast<std::uint64_t>(parity(addrs[i], functions[f]))
                << f;
    }
  }
  return out;
}

TEST(Bitops, DecodeBanksMatchesParityDefinition) {
  rng r(101);
  const std::vector<std::uint64_t> functions{
      (1ull << 14) | (1ull << 17), (1ull << 15) | (1ull << 18),
      (1ull << 16) | (1ull << 19), (1ull << 6)};
  std::vector<std::uint64_t> addrs(1000);
  for (auto& a : addrs) a = r.below(1ull << 34);

  const auto expected = decode_banks_reference(addrs, functions);
  std::vector<std::uint64_t> got(addrs.size());
  decode_banks(addrs.data(), addrs.size(), functions.data(), functions.size(),
               got.data());
  EXPECT_EQ(got, expected);
}

TEST(Bitops, DecodeBanksDispatchEqualsScalarOnRandomFunctionSets) {
  // Random masks (not just realistic bank functions) across sizes that
  // straddle the kernel's 64-address block boundary, including the ragged
  // tail and the empty batch. The per-address bank_id must agree too.
  rng r(103);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}, std::size_t{4096}}) {
    for (std::size_t function_count = 0; function_count <= 6;
         ++function_count) {
      std::vector<std::uint64_t> functions(function_count);
      for (auto& f : functions) f = r.below(~std::uint64_t{0});
      std::vector<std::uint64_t> addrs(n);
      for (auto& a : addrs) a = r.below(~std::uint64_t{0});

      std::vector<std::uint64_t> dispatched(n), scalar(n), single(n);
      decode_banks(addrs.data(), n, functions.data(), function_count,
                   dispatched.data());
      decode_banks_scalar(addrs.data(), n, functions.data(), function_count,
                          scalar.data());
      for (std::size_t i = 0; i < n; ++i) {
        single[i] = bank_id(addrs[i], functions);
      }
      const auto expected = decode_banks_reference(addrs, functions);
      EXPECT_EQ(dispatched, scalar)
          << "n=" << n << " functions=" << function_count;
      EXPECT_EQ(scalar, expected)
          << "n=" << n << " functions=" << function_count;
      EXPECT_EQ(single, expected)
          << "n=" << n << " functions=" << function_count;
    }
  }
}

TEST(Bitops, DecodeBanksSimdFlagIsStable) {
  // Dispatch resolves once; repeated queries agree (whatever the host and
  // DRAMDIG_FORCE_SCALAR_DECODE decided).
  const bool first = decode_banks_uses_simd();
  EXPECT_EQ(decode_banks_uses_simd(), first);
}

}  // namespace
}  // namespace dramdig
