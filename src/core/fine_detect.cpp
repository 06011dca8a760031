#include "core/fine_detect.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <set>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/log.h"

namespace dramdig::core {

namespace {

/// Maximum pairs voted per candidate confirmation; the majority wins.
constexpr unsigned kVotes = 3;

/// A delta containing bit `s` that keeps every bank function invariant:
/// solve parity(x, f_i) = 0 for all i plus x_s = 1 over the bank-bit
/// support. nullopt when no such delta exists.
std::optional<std::uint64_t> bank_invariant_delta(
    const std::vector<std::uint64_t>& funcs, unsigned s,
    std::uint64_t support) {
  gf2::matrix system = funcs;
  system.push_back(std::uint64_t{1} << s);  // pin the candidate bit to 1
  const std::uint64_t rhs = std::uint64_t{1} << funcs.size();
  return gf2::solve(system, rhs, support | (std::uint64_t{1} << s));
}

}  // namespace

fine_outcome run_fine_detection(bit_probe_engine& probe,
                                const domain_knowledge& knowledge,
                                const coarse_result& coarse,
                                const std::vector<std::uint64_t>& bank_functions,
                                rng& r, const dram::address_mapping* prior) {
  DRAMDIG_EXPECTS(!bank_functions.empty());
  fine_outcome out;
  out.row_bits = coarse.row_bits;
  out.column_bits = coarse.column_bits;

  const std::uint64_t support = mask_of_bits(coarse.bank_bits);
  std::set<unsigned> rows(out.row_bits.begin(), out.row_bits.end());
  std::set<unsigned> cols(out.column_bits.begin(), out.column_bits.end());

  // Sibling evidence (fleet warm start), usable only when the detected
  // functions span the claimed space — the claimed row set is a statement
  // about THESE functions' null-space deltas. When usable it (a) orders
  // claimed-row candidates first, so the spec count is exhausted before
  // refutable candidates are ever probed, and (b) predicts each
  // confirmation verdict: a delta flips a row iff it meets the claimed
  // row mask.
  std::uint64_t prior_rows = 0;
  const bool prior_usable =
      prior && !prior->bank_functions().empty() &&
      gf2::same_span(bank_functions, prior->bank_functions());
  if (prior_usable) prior_rows = mask_of_bits(prior->row_bits());

  // ---- Shared row bits -------------------------------------------------
  // Candidate = a function's highest bit (the paper: "consider the higher
  // one as the row bit"). Functions are investigated highest-bit-first:
  // row bits live at the top of the address, so the first proposals are
  // the most likely true rows, and the spec count is usually exhausted
  // before basis artifacts (a pure/pure bit pair that happens to lie in
  // the function span) ever get proposed.
  std::vector<std::uint64_t> by_width = bank_functions;
  std::sort(by_width.begin(), by_width.end(),
            [](std::uint64_t a, std::uint64_t b) {
              const auto ha = bits_of_mask(a).back();
              const auto hb = bits_of_mask(b).back();
              if (ha != hb) return ha > hb;
              const int pa = std::popcount(a), pb = std::popcount(b);
              return pa != pb ? pa < pb : a < b;
            });
  if (prior_usable) {
    std::stable_partition(by_width.begin(), by_width.end(),
                          [&](std::uint64_t f) {
                            if (std::popcount(f) < 2) return false;
                            const unsigned c = bits_of_mask(f).back();
                            return (prior_rows >> c & 1) != 0;
                          });
  }
  std::size_t needed =
      knowledge.expected_row_bits > rows.size()
          ? knowledge.expected_row_bits - rows.size()
          : 0;
  for (std::uint64_t f : by_width) {
    if (needed == 0) break;
    if (std::popcount(f) < 2) continue;  // a 1-bit function is a pure bank bit
    const auto bits = bits_of_mask(f);
    const unsigned candidate = bits.back();
    if (rows.contains(candidate) || cols.contains(candidate)) continue;

    // Timed confirmation through a bank-invariant delta: one more designed
    // experiment on the shared engine (strict-quality votes — accepting a
    // shared row bit on a contaminated fast sample would corrupt the final
    // mapping, and contamination is one-sided, so the min filter is the
    // right tool here).
    bool accept = true;
    const auto delta = bank_invariant_delta(bank_functions, candidate, support);
    if (delta) {
      const std::uint64_t probe_delta[1] = {*delta};
      const std::optional<bool> probe_prior[1] = {
          prior_usable ? std::optional<bool>((*delta & prior_rows) != 0)
                       : std::nullopt};
      const auto verdict =
          probe
              .run(probe_delta,
                   prior_usable ? std::span<const std::optional<bool>>(
                                      probe_prior)
                                : std::span<const std::optional<bool>>{},
                   kVotes, r, "fine")
              .front();
      if (verdict.has_value()) {
        accept = *verdict;  // high latency <=> a row bit rides in the delta
      } else {
        out.timing_verified = false;  // knowledge-only acceptance
      }
    } else {
      out.timing_verified = false;
    }
    if (!accept) {
      out.rejected_candidates.push_back(candidate);
      continue;
    }
    rows.insert(candidate);
    out.shared_row_bits.push_back(candidate);
    --needed;
  }
  // Knowledge fallback: if function candidates did not satisfy the spec
  // count (a shared row bit can hide as the non-highest bit of every
  // function containing it), take the highest still-covered bits — rows
  // are the top of the address space on every Intel layout.
  if (needed > 0) {
    out.timing_verified = false;
    for (auto it = coarse.bank_bits.rbegin();
         it != coarse.bank_bits.rend() && needed > 0; ++it) {
      if (rows.contains(*it) || cols.contains(*it)) continue;
      rows.insert(*it);
      out.shared_row_bits.push_back(*it);
      --needed;
    }
  }

  // ---- Shared column bits ----------------------------------------------
  // Candidates: function-feeding bits not classified as row or column.
  std::set<unsigned> candidate_set;
  for (std::uint64_t f : bank_functions) {
    for (unsigned b : bits_of_mask(f)) {
      if (!rows.contains(b) && !cols.contains(b)) candidate_set.insert(b);
    }
  }
  // Empirical rule: if one function is strictly widest, its lowest bit is
  // not a column bit.
  if (knowledge.widest_function_rule && bank_functions.size() >= 2) {
    std::uint64_t widest = 0;
    int widest_pop = 0;
    bool unique = false;
    for (std::uint64_t f : bank_functions) {
      const int p = std::popcount(f);
      if (p > widest_pop) {
        widest_pop = p;
        widest = f;
        unique = true;
      } else if (p == widest_pop) {
        unique = false;
      }
    }
    if (unique) {
      candidate_set.erase(bits_of_mask(widest).front());
    }
  }
  std::size_t cols_needed =
      knowledge.expected_column_bits > cols.size()
          ? knowledge.expected_column_bits - cols.size()
          : 0;
  for (unsigned b : candidate_set) {  // std::set iterates ascending
    if (cols_needed == 0) break;
    cols.insert(b);
    out.shared_column_bits.push_back(b);
    --cols_needed;
  }

  out.row_bits.assign(rows.begin(), rows.end());
  out.column_bits.assign(cols.begin(), cols.end());
  std::sort(out.shared_row_bits.begin(), out.shared_row_bits.end());
  std::sort(out.shared_column_bits.begin(), out.shared_column_bits.end());
  out.counts_satisfied =
      out.row_bits.size() == knowledge.expected_row_bits &&
      out.column_bits.size() == knowledge.expected_column_bits;

  log_info("fine: +" + std::to_string(out.shared_row_bits.size()) +
           " shared row bits, +" +
           std::to_string(out.shared_column_bits.size()) +
           " shared column bits, " +
           std::to_string(out.rejected_candidates.size()) + " refuted");
  return out;
}

}  // namespace dramdig::core
