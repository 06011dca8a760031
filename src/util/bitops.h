// Bit-manipulation helpers shared by the mapping model and the
// reverse-engineering tools. All operate on 64-bit physical addresses or
// XOR masks over physical-address bits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/expect.h"

namespace dramdig {

/// XOR-reduce the bits of `value` selected by `mask` to a single bit.
/// This is exactly the Intel bank-address-function primitive the paper
/// describes: "a tuple of multiple physical address bits, which are XORed
/// to output a single bit".
[[nodiscard]] constexpr unsigned parity(std::uint64_t value,
                                        std::uint64_t mask) noexcept {
  return static_cast<unsigned>(std::popcount(value & mask) & 1);
}

/// Test a single bit.
[[nodiscard]] constexpr bool bit(std::uint64_t value, unsigned index) noexcept {
  return ((value >> index) & 1u) != 0;
}

/// Build a mask with the given bit indices set.
[[nodiscard]] inline std::uint64_t mask_of_bits(
    const std::vector<unsigned>& bits) {
  std::uint64_t m = 0;
  for (unsigned b : bits) {
    DRAMDIG_EXPECTS(b < 64);
    m |= std::uint64_t{1} << b;
  }
  return m;
}

/// List the set-bit indices of `mask`, ascending.
[[nodiscard]] inline std::vector<unsigned> bits_of_mask(std::uint64_t mask) {
  std::vector<unsigned> out;
  while (mask != 0) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(mask));
    out.push_back(b);
    mask &= mask - 1;
  }
  return out;
}

/// Gather the bits of `value` selected by ascending indices `bits` into a
/// dense integer (bits[0] becomes bit 0 of the result). This is how a row
/// or column index is extracted from a physical address.
[[nodiscard]] inline std::uint64_t gather_bits(
    std::uint64_t value, const std::vector<unsigned>& bits) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out |= static_cast<std::uint64_t>(bit(value, bits[i])) << i;
  }
  return out;
}

/// Inverse of gather_bits: scatter the low bits of `dense` to positions
/// `bits` (other positions zero).
[[nodiscard]] inline std::uint64_t scatter_bits(
    std::uint64_t dense, const std::vector<unsigned>& bits) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out |= static_cast<std::uint64_t>((dense >> i) & 1u) << bits[i];
  }
  return out;
}

/// Flat bank index of one address: bit i is parity(addr, functions[i]).
/// The one per-address bank-id computation; decode_banks is its batch form.
[[nodiscard]] constexpr std::uint64_t bank_id(
    std::uint64_t addr, std::span<const std::uint64_t> functions) noexcept {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    id |= static_cast<std::uint64_t>(parity(addr, functions[i])) << i;
  }
  return id;
}

/// Decode the flat bank index of `n` addresses at once: out[i] gets bit f
/// equal to parity(addrs[i], functions[f]). This is the simulator's decode
/// hot loop (see sim::memory_controller::decode_pairs): function-major over
/// 64-address blocks so the per-block output stays register/L1 resident
/// across functions. Dispatches once, at first call, to an AVX2 kernel
/// when the CPU supports it (and DRAMDIG_FORCE_SCALAR_DECODE is not set in
/// the environment), else to the portable scalar kernel; both kernels are
/// exact bit operations and produce identical output — pinned by
/// tests/util/test_bitops.cpp on random function sets.
void decode_banks(const std::uint64_t* addrs, std::size_t n,
                  const std::uint64_t* functions, std::size_t function_count,
                  std::uint64_t* out);

/// The portable kernel, callable directly (tests, the decode_simd bench).
void decode_banks_scalar(const std::uint64_t* addrs, std::size_t n,
                         const std::uint64_t* functions,
                         std::size_t function_count, std::uint64_t* out);

/// True when decode_banks resolved to a SIMD kernel on this host — i.e.
/// the CPU supports it and the scalar fallback was not forced via the
/// DRAMDIG_FORCE_SCALAR_DECODE environment variable.
[[nodiscard]] bool decode_banks_uses_simd();

/// Number of contiguous low bits needed to address `size` bytes; requires a
/// power-of-two size.
[[nodiscard]] constexpr unsigned log2_exact(std::uint64_t size) {
  DRAMDIG_EXPECTS(size != 0 && (size & (size - 1)) == 0);
  return static_cast<unsigned>(std::countr_zero(size));
}

}  // namespace dramdig
