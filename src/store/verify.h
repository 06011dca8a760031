// Incremental re-verification of a stored mapping (the store's exact-hit
// fast path).
//
// A fleet machine whose fingerprint matches a store entry almost certainly
// has the stored mapping — but "almost" is not a guarantee (BIOS updates
// reshuffle interleaving without touching the DIMMs). Instead of paying a
// full recovery, the verifier spends a few hundred designed probes through
// the existing core/bit_probe engine to spot-check the stored claim:
//
//   * positive deltas — vectors in the null space of the stored bank
//     functions that flip at least one claimed row bit. If the claim is
//     right, such a delta changes the row but not the bank: SBDR must
//     vote true.
//   * negative deltas — one single-bit delta per stored function (the bit
//     flips that function's parity, so the bank must change) plus a
//     bank-clean column bit (same bank, same row): SBDR must vote false.
//
// Before any probe, a claim that is not a bijection (address_mapping::
// is_bijective) is refuted with zero measurements.
//
// A wrong stored mask fails both ways: its claimed null space leaks into
// a true function (positives vote false), and its claimed function bits
// land on true row bits (negatives vote true). Any mismatch refutes the
// entry and the service re-queues the job as a full recovery.
//
// The verifier's budget is fixed: its buffer fraction, its light
// calibration, its vote count and its seed are named constants in
// verify.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "core/environment.h"
#include "core/run_record.h"
#include "store/mapping_store.h"

namespace dramdig::store {

struct verify_report {
  bool verified = false;
  unsigned deltas_tested = 0;  ///< designed minus untestable
  unsigned positives_tested = 0;
  unsigned negatives_tested = 0;
  unsigned mismatches = 0;
  std::string failure_reason;  ///< empty when verified
  double threshold_ns = 0.0;
  core::run_totals totals;  ///< cost of the whole job
};

/// Spot-check `entry` against the machine behind `env`. Purely additive on
/// the environment (maps its own buffer); a verification followed by a
/// full recovery on verify failure uses a fresh environment so the
/// recovery stays bit-identical to a cold run.
[[nodiscard]] verify_report verify_stored_mapping(core::environment& env,
                                                  const store_entry& entry);

}  // namespace dramdig::store
