// Linear algebra over GF(2) on 64-bit row vectors.
//
// Every DRAM address-mapping component handled in this project is linear
// over GF(2): a bank address function is a parity over selected physical
// address bits, i.e. a row vector, and a set of functions is a matrix. The
// reverse-engineering tools need rank computation (how many independent
// functions), span membership (is a candidate function a linear combination
// of already-accepted ones — Algorithm 3's "remove redundant"), basis
// reduction (canonicalizing a function set), and linear solving (inverting a
// mapping to synthesize a physical address with a desired bank/row — used by
// the rowhammer harness).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

namespace dramdig::gf2 {

/// A matrix over GF(2); each element of `rows` is a 64-column row vector.
using matrix = std::vector<std::uint64_t>;

/// Row-reduce `m` to row echelon form (in place variant returns the basis):
/// returns the nonzero rows of the reduced matrix, pivot columns descending
/// from the most significant bit. The result spans the same row space.
[[nodiscard]] matrix row_echelon(matrix m);

/// The remainder of `v` after reduction by `basis`: zero exactly when `v`
/// lies in the row space. `basis` must be empty, built by reduce_into(),
/// or a row_echelon() result: every row's leading pivot is clear in every
/// later row. The reduction then costs at most basis.size() XORs.
[[nodiscard]] inline std::uint64_t reduce(const matrix& basis,
                                          std::uint64_t v) {
  for (const std::uint64_t b : basis) {
    // Clear v's copy of each row's leading pivot.
    if ((v >> (63 - std::countl_zero(b))) & 1u) v ^= b;
  }
  return v;
}

/// Append the remainder of `v` (see reduce()) to `basis` when it is
/// nonzero; returns true when the basis grew. A basis grown only through
/// this function spans exactly the vectors fed in.
inline bool reduce_into(matrix& basis, std::uint64_t v) {
  v = reduce(basis, v);
  if (v == 0) return false;
  basis.push_back(v);
  return true;
}

/// Rank of the row space.
[[nodiscard]] std::size_t rank(const matrix& m);

/// True if `v` lies in the row space of `m`.
[[nodiscard]] bool in_span(const matrix& m, std::uint64_t v);

/// True if the two matrices span the same row space. This is the right
/// notion of "the reverse-engineered bank functions equal the ground
/// truth": any basis of the same space addresses banks identically up to
/// renumbering.
[[nodiscard]] bool same_span(const matrix& a, const matrix& b);

/// Reduce `funcs` to a minimal independent subset, preferring vectors with
/// fewer set bits (the paper: "functions that have fewer bits have higher
/// priority"), then lower numeric value as a tiebreak. Output is sorted by
/// (popcount, value) and spans the same space.
[[nodiscard]] matrix minimal_basis(matrix funcs);

/// Solve x * A^T = b where the rows of `a` are the linear functionals and
/// `b` supplies one target bit per functional (bit i of `b` is the desired
/// output of functional a[i]). The solution is constrained to the bit
/// positions in `support_mask` (all other bits of x are zero). Returns
/// nullopt when the system is inconsistent over that support.
[[nodiscard]] std::optional<std::uint64_t> solve(const matrix& a,
                                                 std::uint64_t b,
                                                 std::uint64_t support_mask);

/// A basis for the null space of the functionals in `a` restricted to the
/// bit positions in `support_mask`: vectors x (subsets of support_mask) with
/// parity(x, a[i]) == 0 for every i. Two consumers: fine-grained detection
/// builds bank-invariant address deltas from it, and function detection
/// recovers the *entire* candidate-mask set from a pile's XOR-difference
/// matrix — a mask is constant on a pile iff it annihilates every
/// difference, so the candidates are exactly this null space.
[[nodiscard]] matrix nullspace(const matrix& a, std::uint64_t support_mask);

/// Every nonzero vector of the row space of `basis` (which need not be
/// reduced): 2^rank - 1 vectors, enumerated by Gray code so each step costs
/// one XOR. Precondition: rank(basis) <= 24 — the caller is expected to
/// have collapsed the space first; function detection's spaces have rank
/// log2(#banks).
[[nodiscard]] matrix enumerate_span(const matrix& basis);

}  // namespace dramdig::gf2
