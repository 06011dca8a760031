// Step 1: coarse-grained row & column bit detection (paper Section III-C).
//
// Row bits: flip one physical-address bit; if the pair measures slow the
// two addresses are same-bank-different-row, so the flipped bit addresses
// rows (and nothing else). Column bits: flip a known row bit together with
// a candidate bit; slow means the candidate kept the bank (and the row bit
// supplied the conflict), so the candidate addresses columns. Everything
// left over is a (possible) bank bit — including the row/column bits that
// also feed bank functions, which stay "covered" until Step 3.
//
// Both passes are served by the designed-experiment bit-probe engine: the
// whole pass is planned up front and voted in cross-bit rounds (one
// controller batch per round, pairs designed around shared bases, early
// vote termination), at most 7 votes per bit (a constant in
// coarse_detect.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/bit_probe.h"
#include "core/domain_knowledge.h"
#include "util/rng.h"

namespace dramdig::core {

/// A geometry sibling's recovered mapping, offered as an advisory prior
/// (fleet warm start — store::mapping_store evidence). Consumers derive
/// per-experiment vote predictions from it; every prediction is still
/// measurement-confirmed before it decides anything, and a disagreeing
/// vote drops the prediction for that experiment (bit_probe prior rules).
struct mapping_prior {
  std::vector<std::uint64_t> bank_functions;  ///< claimed XOR masks
  std::vector<unsigned> row_bits;             ///< claimed full row set
  std::vector<unsigned> column_bits;          ///< claimed full column set
};

struct coarse_result {
  std::vector<unsigned> row_bits;     ///< row-only bits found by timing
  std::vector<unsigned> column_bits;  ///< knowledge low bits + detected
  std::vector<unsigned> bank_bits;    ///< the covered remainder ("B")
  std::vector<unsigned> untestable_bits;  ///< no measurable pair existed
};

/// Run Step 1 through a caller-owned probe engine (shared with fine
/// detection, so both phases accrete one evidence substrate). Requires a
/// calibrated channel. `prior` is sibling evidence seeding per-bit vote
/// priors (null = cold).
[[nodiscard]] coarse_result run_coarse_detection(
    bit_probe_engine& probe, const domain_knowledge& knowledge, rng& r,
    const mapping_prior* prior = nullptr);

}  // namespace dramdig::core
