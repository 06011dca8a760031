// Ground-truth machine presets: the nine machine settings of Table II.
//
// Each preset carries the DRAM configuration quadruple (channels, DIMMs per
// channel, ranks per DIMM, banks per rank), the installed memory size, the
// ground-truth address mapping exactly as published, and a rowhammer
// vulnerability profile calibrated so the Table III reproduction lands in
// the paper's order of magnitude.
//
// One deliberate correction: Table II prints machine No.5 (16 GiB) with row
// bits 18~32. Its highest mapped bit is then 32, so the printed mapping
// covers only 2^33 bytes = 8 GiB, and no mapping over fewer bits than the
// installed memory's 34 can be a bijection (address_mapping requires one).
// Every other row of the table is consistent with its memory size, so we
// read this as a typo and extend the rows to bit 33.
#pragma once

#include <string>
#include <vector>

#include "dram/mapping.h"
#include "dram/spec.h"

namespace dramdig::dram {

/// How susceptible a machine's DIMMs are to disturbance errors. The flip
/// chances are per victim row per aggregated hammer window (see
/// sim::fault_model) and differ by orders of magnitude across real DIMMs —
/// exactly what Table III shows (No.2 floods, No.5 barely flips).
struct vulnerability_profile {
  double double_sided_flip_chance = 0.0;  ///< both neighbours hammered
  double single_sided_flip_chance = 0.0;  ///< one neighbour hammered
  unsigned max_flips_per_row = 4;         ///< weak cells per row cap
};

/// Timing-measurement quality of a concrete physical unit. Noise is a
/// property of the machine (power management, SMI storms), not of the
/// reverse-engineering tool; the paper's §IV-A observations — DRAMA never
/// finishing on the two old mobile 4 GiB units No.3 and No.7 — are modelled
/// as those units being `noisy`.
enum class timing_quality { clean, mobile, noisy };

struct machine_spec {
  int number = 0;                    ///< the paper's "No." column
  std::string microarchitecture;     ///< e.g. "Sandy Bridge"
  std::string cpu_model;             ///< e.g. "i5-2400"
  ddr_generation generation = ddr_generation::ddr3;
  std::uint64_t memory_bytes = 0;
  unsigned channels = 0;
  unsigned dimms_per_channel = 0;
  unsigned ranks_per_dimm = 0;
  unsigned banks_per_rank = 0;
  bool ecc = false;
  address_mapping mapping;           ///< ground truth per Table II
  vulnerability_profile vulnerability;
  timing_quality quality = timing_quality::clean;

  [[nodiscard]] unsigned total_banks() const {
    return channels * dimms_per_channel * ranks_per_dimm * banks_per_rank;
  }
  [[nodiscard]] chip_spec spec() const {
    return spec_for(generation, banks_per_rank);
  }
  /// "No.3" label used across tables.
  [[nodiscard]] std::string label() const {
    return "No." + std::to_string(number);
  }
  /// "DDR3, 8GiB" as Table II prints it.
  [[nodiscard]] std::string dram_description() const;
  /// "(2, 1, 1, 8)" configuration quadruple.
  [[nodiscard]] std::string config_quadruple() const;
};

/// All nine paper machines, in Table II order.
[[nodiscard]] const std::vector<machine_spec>& paper_machines();

/// Lookup by paper number (1..9).
[[nodiscard]] const machine_spec& machine_by_number(int number);

/// A synthetic machine with a randomly generated — but valid — mapping.
/// Used by property tests: DRAMDig must recover arbitrary Intel-shaped
/// mappings, not just the nine published ones. `address_bits` in [30, 36].
[[nodiscard]] machine_spec random_machine(unsigned address_bits,
                                          unsigned bank_function_count,
                                          std::uint64_t seed);

}  // namespace dramdig::dram
