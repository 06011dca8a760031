// Rowhammer DRAM PUF (the application class the paper's intro cites via
// Schaller et al. [11]): the *pattern* of flippable cells is a stable,
// device-unique physical fingerprint. Enrolling and verifying a PUF
// requires hammering precisely chosen rows — i.e., a correct DRAM address
// mapping — so PUF quality is another downstream consumer of DRAMDig.
//
// This example enrolls a fingerprint from a region of a machine (which
// rows flip under double-sided pressure), re-measures it on the same
// machine (should match) and on a second physical unit with identical
// model/mapping (should differ): intra- vs inter-device Hamming distance.
//
//   $ rowhammer_puf [machine_number=2]
#include <cstdio>
#include <vector>

#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "sim/machine.h"
#include "sim/profiles.h"
#include "util/rng.h"
#include "cli_args.h"

namespace {

using namespace dramdig;

/// Hammer rows [first, first+count) of bank 0 and record which victims
/// flipped: the PUF response bitstring.
std::vector<bool> enroll(sim::machine& machine,
                         const dram::address_mapping& mapping,
                         std::uint64_t first_row, std::size_t rows) {
  std::vector<bool> response;
  for (std::size_t i = 0; i < rows; ++i) {
    // Scan-and-refill before each victim so leakage from the previous
    // pair's aggressors cannot mask this row's own response.
    machine.faults().reset_flips();
    const std::uint64_t victim = first_row + i;
    const auto above = mapping.encode(0, victim - 1, 0);
    const auto below = mapping.encode(0, victim + 1, 0);
    bool flipped = false;
    if (above && below) {
      // Enough windows that a weak cell responds with near-certainty; PUF
      // enrollment hammers each row many refresh intervals. The response
      // bit comes from scanning the victim row itself (neighbour leakage
      // from the aggressors' outer sides must not pollute it).
      const std::uint64_t true_bank = machine.spec().mapping.bank_of(*above);
      const std::uint64_t true_row =
          machine.spec().mapping.row_of(*above) + 1;
      for (int w = 0; w < 30 && !flipped; ++w) {
        (void)machine.faults().hammer_pair(*above, *below);
        flipped = machine.faults().flipped_in_row(true_bank, true_row) > 0;
      }
    }
    response.push_back(flipped);
  }
  return response;
}

std::size_t hamming(const std::vector<bool>& a, const std::vector<bool>& b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i];
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  int machine_no = 2;
  dramdig::examples::parse_machine_args(
      argc, argv, "rowhammer_puf [machine_number=2 (1-9)]", machine_no,
      nullptr);
  const dram::machine_spec& spec = dram::machine_by_number(machine_no);
  constexpr std::size_t kRows = 512;
  constexpr std::uint64_t kFirstRow = 1000;

  // Uncover the mapping first — the PUF protocol needs it to address rows.
  core::environment env(spec, /*seed=*/31337);
  const auto report = core::dramdig_tool(env).run();
  if (!report.success || !report.mapping) {
    std::fprintf(stderr, "reverse engineering failed: %s\n",
                 report.failure_reason.c_str());
    return 1;
  }

  // Device A: enroll + re-measure. Device B: same model, different unit.
  const auto fp_a1 = enroll(env.mach(), *report.mapping, kFirstRow, kRows);
  const auto fp_a2 = enroll(env.mach(), *report.mapping, kFirstRow, kRows);
  sim::machine device_b(spec, /*seed=*/777, sim::timing_profile_for(spec));
  const auto fp_b = enroll(device_b, *report.mapping, kFirstRow, kRows);

  std::size_t ones = 0;
  for (bool b : fp_a1) ones += b;
  std::printf("Rowhammer PUF on %s (%s), %zu rows of bank 0\n\n",
              spec.label().c_str(), spec.dram_description().c_str(), kRows);
  std::printf("fingerprint weight:          %zu/%zu rows flip\n", ones, kRows);
  std::printf("intra-device distance:       %zu bits (re-measurement, same "
              "unit)\n",
              hamming(fp_a1, fp_a2));
  std::printf("inter-device distance:       %zu bits (different unit, same "
              "model)\n",
              hamming(fp_a1, fp_b));
  std::printf("\nA usable PUF needs intra << inter: the weak-cell pattern is "
              "a stable per-unit property, reachable only through a correct "
              "address mapping.\n");
  return 0;
}
