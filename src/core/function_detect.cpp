#include "core/function_detect.h"

#include <algorithm>
#include <set>
#include <string>

#include "util/bitops.h"
#include "util/combinatorics.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/log.h"

namespace dramdig::core {

namespace {

/// Virtual CPU time charged per parity evaluation / GF(2) row operation;
/// keeps Fig. 2 honest about the software cost of the search.
constexpr double kCpuNsPerCheck = 1.0;

/// Bank ids assigned by `funcs` to each pile's pivot; valid numbering means
/// all distinct, and covering 0..#banks-1 when every bank has a pile. A
/// partition that produced fewer than half the banks carries too little
/// information to count anything — reject it so the orchestrator retries.
bool numbers_piles(const std::vector<std::uint64_t>& funcs,
                   const std::vector<std::vector<std::uint64_t>>& piles,
                   unsigned bank_count) {
  if (piles.size() < std::max<std::size_t>(2, bank_count / 2)) return false;
  std::set<std::uint64_t> ids;
  for (const auto& pile : piles) {
    // Two piles, same bank id.
    if (!ids.insert(bank_id(pile.front(), funcs)).second) return false;
  }
  if (piles.size() == bank_count) {
    // Complete partition: ids must be exactly 0..#banks-1.
    return ids.size() == bank_count && *ids.rbegin() == bank_count - 1 &&
           *ids.begin() == 0;
  }
  return true;
}

/// The null-space candidate search. Every pile member's XOR difference to
/// the pile's pivot, restricted to the bank-bit support, is one row of a
/// difference matrix D; a mask m (subset of the support) is constant on
/// every pile iff parity(d, m) == 0 for every row d — i.e. the candidate
/// set is exactly the null space of D. Reducing D to a row-echelon basis
/// costs O(pool * |bank_bits|) XOR operations; expanding the null space
/// (dimension ~log2(#banks)) back to the full candidate set is 2^dim - 1
/// Gray-code XORs. `ops` counts row operations for virtual-time charging.
std::vector<std::uint64_t> nullspace_candidates(
    const std::vector<std::vector<std::uint64_t>>& piles,
    std::uint64_t support, std::uint64_t& ops) {
  // Incrementally reduced difference basis: rows keep distinct leading
  // pivots, so each new difference reduces in at most rank(D) XORs.
  gf2::matrix diff_basis;
  for (const auto& pile : piles) {
    const std::uint64_t base = pile.front();
    for (std::size_t i = 1; i < pile.size(); ++i) {
      ops += diff_basis.size();
      gf2::reduce_into(diff_basis, (pile[i] ^ base) & support);
    }
  }
  const gf2::matrix kernel = gf2::nullspace(diff_basis, support);
  if (kernel.empty()) return {};
  if (kernel.size() <= 20) {
    // Exact expansion: every mask constant on every pile.
    std::vector<std::uint64_t> candidates = gf2::enumerate_span(kernel);
    ops += candidates.size();
    return candidates;
  }
  // Degenerate piles (e.g. a single pile over many bank bits) can leave a
  // huge null space; expanding it would reintroduce the exponential cost.
  // Detection is doomed to fail in that regime anyway, so return the basis
  // itself and let the rank/numbering checks reject it.
  ops += kernel.size();
  return kernel;
}

}  // namespace

function_outcome detect_functions(
    const std::vector<std::vector<std::uint64_t>>& piles,
    const std::vector<unsigned>& bank_bits, unsigned bank_count,
    sim::virtual_clock& clock) {
  DRAMDIG_EXPECTS(!piles.empty());
  DRAMDIG_EXPECTS(!bank_bits.empty());
  function_outcome out;
  const unsigned want = log2_exact(bank_count);
  std::uint64_t checks = 0;

  const std::vector<std::uint64_t> candidates =
      nullspace_candidates(piles, mask_of_bits(bank_bits), checks);
  out.raw_candidates = candidates.size();
  clock.advance_ns(static_cast<std::uint64_t>(
      static_cast<double>(checks) * kCpuNsPerCheck));

  // prioritize + remove_redundant: minimal independent basis preferring
  // fewer-bit functions.
  std::vector<std::uint64_t> basis = gf2::minimal_basis(candidates);

  if (basis.size() < want) {
    out.failure_reason = "only " + std::to_string(basis.size()) + " of " +
                         std::to_string(want) + " independent functions";
    return out;
  }

  if (basis.size() == want) {
    out.functions = basis;
    out.numbering_ok = numbers_piles(basis, piles, bank_count);
    out.success = true;
    return out;
  }

  // More independent candidates than log2(#banks): try every subset of the
  // right size and keep the one that numbers the piles correctly
  // (check_numbering). Subset count is tiny in practice.
  std::vector<unsigned> index(basis.size());
  for (unsigned i = 0; i < basis.size(); ++i) index[i] = i;
  bool found = false;
  for_each_bit_combination(
      index, want, want, [&](std::uint64_t subset_mask) {
        std::vector<std::uint64_t> subset;
        for (unsigned i : bits_of_mask(subset_mask)) subset.push_back(basis[i]);
        if (gf2::rank(subset) == want &&
            numbers_piles(subset, piles, bank_count)) {
          out.functions = subset;
          found = true;
          return false;  // stop enumeration
        }
        return true;
      });
  if (!found) {
    out.failure_reason = "no size-" + std::to_string(want) +
                         " subset numbers the piles consistently";
    return out;
  }
  out.numbering_ok = true;
  out.success = true;
  return out;
}

}  // namespace dramdig::core
