// Step 3: fine-grained row & column bit detection (paper Section III-E).
//
// After Step 2 the bank functions are known exactly, and the JEDEC spec
// says how many row and column bits must exist — so the bits still
// "covered" are the rows/columns that double as bank-function inputs.
//
// Rows: for each bank function (fewest bits first) the paper takes the
// higher bit as the row candidate and confirms with a timed pair that
// differs only in bits that keep every resolved function invariant. A
// plain two-bit flip is not always bank-invariant (a bit may feed a wider
// function too — bit 18 on machine No.2 feeds both (14,18) and the 7-bit
// channel function), so the delta is completed through the GF(2) null
// space of the resolved functions; high latency confirms a row bit rides
// in the delta, low latency refutes the candidate (exactly what rejects
// the pure bank bit 14 proposed by (7,14) on Skylake machines). The
// confirmation is just another designed experiment on the shared bit-probe
// engine (at most 3 votes, a constant in fine_detect.cpp), so its verdicts
// draw on the evidence coarse already accreted in the measurement plan.
//
// Columns: knowledge-driven as in the paper. Candidates are the
// function-feeding bits not yet classified; if a unique widest function
// exists, its lowest bit is excluded (the "since Ivy Bridge" empirical
// rule); the remaining candidates are taken lowest-first until the spec
// count is met.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bit_probe.h"
#include "core/coarse_detect.h"
#include "core/domain_knowledge.h"
#include "dram/mapping.h"
#include "util/rng.h"

namespace dramdig::core {

struct fine_outcome {
  std::vector<unsigned> row_bits;          ///< complete, sorted
  std::vector<unsigned> column_bits;       ///< complete, sorted
  std::vector<unsigned> shared_row_bits;   ///< rows recovered in this step
  std::vector<unsigned> shared_column_bits;
  std::vector<unsigned> rejected_candidates;  ///< refuted by timing
  bool counts_satisfied = false;  ///< row/col counts match the spec
  bool timing_verified = true;    ///< no accepted candidate lacked a probe
};

/// Run Step 3: candidate confirmations run on the caller's probe engine
/// (shared with coarse, measuring through the same reuse scheduler as
/// partition — verdicts accreted anywhere are available here).
///
/// `prior` is sibling evidence (fleet warm start; null = cold):
/// per-candidate confirmation probes carry a vote prior predicting whether
/// a row bit rides in the bank-invariant delta — but only when the
/// detected functions span the same space as the claimed ones (otherwise
/// the claimed row set says nothing about this machine's deltas).
/// Advisory as everywhere: a disagreeing strict-grade vote drops the prior
/// per experiment.
[[nodiscard]] fine_outcome run_fine_detection(
    bit_probe_engine& probe, const domain_knowledge& knowledge,
    const coarse_result& coarse,
    const std::vector<std::uint64_t>& bank_functions, rng& r,
    const dram::address_mapping* prior = nullptr);

}  // namespace dramdig::core
