#include "core/coarse_detect.h"

#include <algorithm>
#include <optional>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/log.h"

namespace dramdig::core {

namespace {

/// Maximum pairs voted per bit experiment; the majority wins.
constexpr unsigned kVotes = 7;

}  // namespace

coarse_result run_coarse_detection(bit_probe_engine& probe,
                                   const domain_knowledge& knowledge, rng& r,
                                   const dram::address_mapping* prior) {
  DRAMDIG_EXPECTS(probe.plan().channel().calibrated());
  coarse_result result;

  // Sibling evidence (fleet warm start) as per-bit vote priors. The
  // stored mapping claims exactly what each pass measures: a single-bit
  // delta votes true iff the bit is row-only (claimed row, not feeding a
  // function), false iff it feeds a function or is column-only. Bits the
  // claim cannot settle get no prior, and every prior is still confirmed
  // by a strict-grade vote before it decides (bit_probe prior rules).
  std::uint64_t func_union = 0, prior_rows = 0, prior_cols = 0;
  if (prior) {
    for (const std::uint64_t f : prior->bank_functions()) func_union |= f;
    prior_rows = mask_of_bits(prior->row_bits());
    prior_cols = mask_of_bits(prior->column_bits());
  }

  // --- Row pass: single-bit deltas, one engine run. ----------------------
  // Every candidate bit's experiment is planned up front; the engine votes
  // them in cross-bit rounds (one controller batch per round) instead of
  // one batch per bit.
  std::vector<unsigned> probed;
  std::vector<std::uint64_t> deltas;
  std::vector<std::optional<bool>> priors;
  for (unsigned b = knowledge.min_probe_bit; b < knowledge.address_bits; ++b) {
    probed.push_back(b);
    deltas.push_back(std::uint64_t{1} << b);
    if (prior) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      if ((prior_rows & bit) != 0 && (func_union & bit) == 0) {
        priors.emplace_back(true);
      } else if ((func_union & bit) != 0 || (prior_cols & bit) != 0) {
        priors.emplace_back(false);
      } else {
        priors.emplace_back(std::nullopt);
      }
    }
  }
  const auto row_verdicts =
      probe.run(deltas, priors, kVotes, r, "coarse.row");
  std::vector<unsigned> non_row;
  for (std::size_t i = 0; i < probed.size(); ++i) {
    if (!row_verdicts[i]) {
      result.untestable_bits.push_back(probed[i]);
    } else if (*row_verdicts[i]) {
      result.row_bits.push_back(probed[i]);
    } else {
      non_row.push_back(probed[i]);
    }
  }
  if (result.row_bits.empty()) {
    // Without a single row-only bit the column pass cannot run; the
    // orchestrator treats this as a failed attempt.
    log_error("coarse: no row bits detected");
    result.bank_bits = non_row;
    return result;
  }

  // --- Column pass: (known row bit, candidate) deltas. -------------------
  // Use a row bit that is low enough to pair easily; any row-only bit
  // keeps the bank fixed by definition.
  const unsigned row_ref = result.row_bits.front();
  deltas.clear();
  priors.clear();
  // Column-pass priors only make sense when the claim agrees that the
  // reference bit is row-only — otherwise the claimed verdict of
  // (row_ref, b) deltas is not the column question.
  const bool ref_row_only = prior &&
                            (prior_rows >> row_ref & 1) != 0 &&
                            (func_union >> row_ref & 1) == 0;
  for (unsigned b : non_row) {
    deltas.push_back((std::uint64_t{1} << row_ref) | (std::uint64_t{1} << b));
    if (prior) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      if (!ref_row_only) {
        priors.emplace_back(std::nullopt);
      } else if ((prior_cols & bit) != 0 && (func_union & bit) == 0) {
        priors.emplace_back(true);
      } else if ((func_union & bit) != 0) {
        priors.emplace_back(false);
      } else {
        priors.emplace_back(std::nullopt);
      }
    }
  }
  const auto col_verdicts =
      probe.run(deltas, priors, kVotes, r, "coarse.col");
  for (std::size_t i = 0; i < non_row.size(); ++i) {
    if (col_verdicts[i] && *col_verdicts[i]) {
      result.column_bits.push_back(non_row[i]);
    } else {
      result.bank_bits.push_back(non_row[i]);
    }
  }

  // Knowledge: bits below the cache-line size address bytes within one
  // 64-byte burst — columns by construction, unmeasurable by timing.
  for (unsigned b = 0; b < knowledge.min_probe_bit; ++b) {
    result.column_bits.push_back(b);
  }
  std::sort(result.column_bits.begin(), result.column_bits.end());

  log_info("coarse: rows=" + std::to_string(result.row_bits.size()) +
           " cols=" + std::to_string(result.column_bits.size()) +
           " covered=" + std::to_string(result.bank_bits.size()));
  return result;
}

}  // namespace dramdig::core
