#include "store/verify.h"

#include <bit>

#include "core/bit_probe.h"
#include "core/domain_knowledge.h"
#include "core/measurement_plan.h"
#include "core/probe_util.h"
#include "sysinfo/system_info.h"
#include "timing/channel.h"
#include "util/gf2.h"
#include "util/log.h"

namespace dramdig::store {

namespace {

/// Cap on positive (row-flip) deltas designed from the null space.
constexpr unsigned kMaxPositive = 8;
/// Fraction of installed memory mapped for probe pairs (same as the
/// recovery pipeline, so high row-bit deltas stay testable).
constexpr double kBufferFraction = 0.55;
/// Calibration budget deliberately lighter than a recovery run: the
/// verifier only needs a usable threshold, and calibration dominates a
/// few-hundred-measurement job. These numbers keep a whole verification
/// under 20% of a cold recovery (the fleet_warm_start bench floor).
constexpr timing::channel_config kChannel{.rounds_per_measurement = 1000,
                                          .calibration_pairs = 160,
                                          .calibration_min_pairs = 60,
                                          .calibration_chunk = 30};
/// Maximum pairs voted per designed probe; the majority decides.
constexpr unsigned kVotes = 5;
/// Seed of the verifier's own rng stream.
constexpr std::uint64_t kToolSeed = 1;

/// Why `claim` cannot be the mapping of the machine `info` describes,
/// decided without a measurement (empty = no contradiction): it must be a
/// bijection, and its geometry must be the one the paper's domain
/// knowledge fixes — system information gives the address width and the
/// bank count, the JEDEC spec the row and column counts. Probes cannot be
/// trusted to catch these: a dropped row bit reads like any other
/// same-bank, same-row delta.
std::string refute_by_knowledge(const dram::address_mapping& claim,
                                const sysinfo::system_info& info) {
  if (!claim.is_bijective()) return "stored mapping is not a bijection";
  const core::domain_knowledge known =
      core::domain_knowledge::from_system_info(info);
  const auto claims = [](std::size_t count, const char* what,
                         unsigned expected, const std::string& source) {
    return "stored mapping claims " + std::to_string(count) + " " + what +
           " where " + source + " gives " + std::to_string(expected);
  };
  if (claim.address_bits() != known.address_bits) {
    return claims(claim.address_bits(), "address bits", known.address_bits,
                  "the installed memory");
  }
  if (claim.bank_functions().size() != known.bank_function_count) {
    return claims(claim.bank_functions().size(), "bank functions",
                  known.bank_function_count,
                  "a bank count of " + std::to_string(known.total_banks));
  }
  if (claim.row_bits().size() != known.expected_row_bits) {
    return claims(claim.row_bits().size(), "row bits",
                  known.expected_row_bits, "the DIMM spec");
  }
  if (claim.column_bits().size() != known.expected_column_bits) {
    return claims(claim.column_bits().size(), "column bits",
                  known.expected_column_bits, "the DIMM spec");
  }
  return {};
}

}  // namespace

verify_report verify_stored_mapping(core::environment& env,
                                    const store_entry& entry) {
  verify_report report;
  auto& mc = env.mach().controller();
  const core::run_meter meter(mc, {});
  const sysinfo::system_info info = sysinfo::probe(env.spec());
  // Zero-measurement gate, before calibration.
  report.failure_reason = refute_by_knowledge(entry.mapping(), info);
  if (!report.failure_reason.empty()) {
    report.totals = meter.totals();
    log_info("store.verify: REFUTED (" + report.failure_reason +
             ", 0 measurements)");
    return report;
  }
  // Distinct stream from the recovery pipeline's rng, so a verification
  // followed by a re-queued full run never correlates draws with it.
  rng r(env.seed() ^ (kToolSeed * 0x9e3779b97f4a7c15ull) ^
        0xc2b2ae3d27d4eb4full);
  timing::channel channel(mc, kChannel, r.fork());

  const os::mapping_region& buffer = env.space().map_buffer(
      static_cast<std::uint64_t>(kBufferFraction *
                                 static_cast<double>(info.total_bytes)));
  report.threshold_ns = channel.calibrate(
      core::sample_addresses(buffer, 1024, r));

  core::measurement_plan plan(channel);
  core::bit_probe_engine probe(plan, buffer);

  const std::uint64_t addr_mask =
      entry.address_bits >= 64 ? ~0ull
                               : (std::uint64_t{1} << entry.address_bits) - 1;
  constexpr unsigned min_bit = core::domain_knowledge::min_probe_bit;
  const std::uint64_t support =
      addr_mask & ~((std::uint64_t{1} << min_bit) - 1);
  std::uint64_t row_mask = 0;
  for (const unsigned b : entry.row_bits) row_mask |= std::uint64_t{1} << b;
  std::uint64_t func_union = 0;
  for (const std::uint64_t f : entry.bank_functions) func_union |= f;

  std::vector<std::uint64_t> deltas;
  std::vector<char> expect;
  const auto add = [&](std::uint64_t d, bool e) {
    if (d == 0) return;
    for (const std::uint64_t seen : deltas) {
      if (seen == d) return;
    }
    deltas.push_back(d);
    expect.push_back(e ? 1 : 0);
  };

  // Positives: claimed-bank-invariant deltas that flip a claimed row bit.
  // Start with single row bits outside every function (the cleanest
  // claim), then null-space basis vectors for span coverage. A basis
  // vector with no row involvement is made row-flipping by folding in a
  // function-clean row bit — the fold keeps it inside the claimed null
  // space, and without it the probe is blind either way (same bank, same
  // row under the claim; different bank under a refuting truth — both
  // read as "no conflict"). Vectors that touch the stored function bits
  // go first: a wrong mask warps the null space precisely there.
  // Single row bits get at most half the budget: they validate row
  // claims but are blind to a wrong function mask, and a full budget of
  // them would starve the span probes that do catch one.
  unsigned positives = 0;
  std::uint64_t clean_row = 0;
  for (const unsigned b : entry.row_bits) {
    if (b < min_bit || ((func_union >> b) & 1u) != 0) continue;
    if (clean_row == 0) clean_row = std::uint64_t{1} << b;
    if (positives >= kMaxPositive / 2) break;
    add(std::uint64_t{1} << b, true);
    ++positives;
  }
  if (!entry.bank_functions.empty()) {
    const std::vector<std::uint64_t> basis =
        gf2::nullspace(entry.bank_functions, support);
    for (const int pass : {0, 1}) {
      for (const std::uint64_t v : basis) {
        if (positives >= kMaxPositive) break;
        if (((v & func_union) != 0) != (pass == 0)) continue;
        std::uint64_t d = v;
        if ((d & row_mask) == 0) {
          if (clean_row == 0) continue;  // no way to force a row flip
          d ^= clean_row;
        }
        add(d, true);
        ++positives;
      }
    }
  }

  // Negatives: one single-bit delta per stored function — the bit flips
  // that function's parity, so the bank must change — plus a bank-clean
  // column bit (same bank, same row).
  for (const std::uint64_t f : entry.bank_functions) {
    const std::uint64_t bits = f & support;
    if (bits == 0) continue;
    add(std::uint64_t{1} << std::countr_zero(bits), false);
  }
  for (const unsigned b : entry.column_bits) {
    if (b < min_bit || ((func_union >> b) & 1u) != 0) continue;
    add(std::uint64_t{1} << b, false);
    break;
  }

  if (positives == 0) {
    report.failure_reason = "no verifiable row-flip delta in stored entry";
  } else {
    const auto verdicts = probe.run(deltas, kVotes, r, "store.verify");
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (!verdicts[i].has_value()) continue;  // untestable: no evidence
      ++report.deltas_tested;
      if (expect[i] != 0) {
        ++report.positives_tested;
      } else {
        ++report.negatives_tested;
      }
      if (*verdicts[i] != (expect[i] != 0)) ++report.mismatches;
    }
  }

  report.verified =
      report.mismatches == 0 && report.positives_tested > 0 &&
      (entry.bank_functions.empty() || report.negatives_tested > 0);
  if (!report.verified && report.failure_reason.empty()) {
    report.failure_reason =
        report.mismatches > 0
            ? std::to_string(report.mismatches) + " of " +
                  std::to_string(report.deltas_tested) +
                  " designed probes contradict the stored mapping"
            : "too few testable probes to trust the stored mapping";
  }
  report.totals = meter.totals();
  log_info("store.verify: " +
           std::string(report.verified ? "verified" : "REFUTED") + " (" +
           std::to_string(report.deltas_tested) + " probes, " +
           std::to_string(report.mismatches) + " mismatches, " +
           std::to_string(report.totals.measurements) + " measurements)");
  return report;
}

}  // namespace dramdig::store
