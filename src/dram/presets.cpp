#include "dram/presets.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/rng.h"

namespace dramdig::dram {

namespace {

/// Bit-list shorthand: closed range [lo, hi].
std::vector<unsigned> bit_range(unsigned lo, unsigned hi) {
  std::vector<unsigned> out;
  for (unsigned b = lo; b <= hi; ++b) out.push_back(b);
  return out;
}

std::vector<unsigned> concat(std::vector<unsigned> a,
                             const std::vector<unsigned>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::uint64_t fn(std::initializer_list<unsigned> bits) {
  std::uint64_t m = 0;
  for (unsigned b : bits) m |= std::uint64_t{1} << b;
  return m;
}

machine_spec make_machine(int number, std::string uarch, std::string cpu,
                          ddr_generation gen, std::uint64_t bytes,
                          unsigned channels, unsigned dimms, unsigned ranks,
                          unsigned banks, std::vector<std::uint64_t> funcs,
                          std::vector<unsigned> rows,
                          std::vector<unsigned> cols,
                          vulnerability_profile vuln,
                          timing_quality quality = timing_quality::clean) {
  machine_spec m{number,
                 std::move(uarch),
                 std::move(cpu),
                 gen,
                 bytes,
                 channels,
                 dimms,
                 ranks,
                 banks,
                 /*ecc=*/false,
                 address_mapping(std::move(funcs), std::move(rows),
                                 std::move(cols), log2_exact(bytes)),
                 vuln,
                 quality};
  DRAMDIG_ENSURES(m.mapping.is_bijective());
  DRAMDIG_ENSURES(m.mapping.bank_count() == m.total_banks());
  return m;
}

constexpr std::uint64_t GiB = std::uint64_t{1} << 30;

// Vulnerability calibration: double-sided flip chance per victim row per
// hammer window, tuned so the Table III reproduction lands at the paper's
// order of magnitude (No.2 ~ 950+/test, No.1 ~ 400/test, No.5 ~ 11/test
// with the harness's ~2800 windows per 5-minute test).
constexpr vulnerability_profile kVulnNo1{0.095, 0.004, 2};
constexpr vulnerability_profile kVulnNo2{0.22, 0.015, 3};
constexpr vulnerability_profile kVulnNo5{0.0048, 0.0002, 1};
// Machines not hammered in the paper get a moderate default.
constexpr vulnerability_profile kVulnDefault{0.08, 0.003, 2};

std::vector<machine_spec> build_paper_machines() {
  std::vector<machine_spec> ms;
  // No.1: Sandy Bridge i5-2400, DDR3 8GiB, (2,1,1,8).
  ms.push_back(make_machine(
      1, "Sandy Bridge", "i5-2400", ddr_generation::ddr3, 8 * GiB, 2, 1, 1, 8,
      {fn({6}), fn({14, 17}), fn({15, 18}), fn({16, 19})}, bit_range(17, 32),
      concat(bit_range(0, 5), bit_range(7, 13)), kVulnNo1));
  // No.2: Ivy Bridge i5-3230M, DDR3 8GiB, (2,1,2,8).
  ms.push_back(make_machine(
      2, "Ivy Bridge", "i5-3230M", ddr_generation::ddr3, 8 * GiB, 2, 1, 2, 8,
      {fn({14, 18}), fn({15, 19}), fn({16, 20}), fn({17, 21}),
       fn({7, 8, 9, 12, 13, 18, 19})},
      bit_range(18, 32), concat(bit_range(0, 6), bit_range(8, 13)), kVulnNo2,
      timing_quality::mobile));
  // No.3: Ivy Bridge i5-3230M, DDR3 4GiB, (1,1,2,8).
  ms.push_back(make_machine(
      3, "Ivy Bridge", "i5-3230M", ddr_generation::ddr3, 4 * GiB, 1, 1, 2, 8,
      {fn({13, 17}), fn({14, 18}), fn({15, 19}), fn({16, 20})},
      bit_range(17, 31), bit_range(0, 12), kVulnDefault,
      timing_quality::noisy));
  // No.4: Haswell i5-4210U, DDR3 4GiB, (1,1,1,8).
  ms.push_back(make_machine(
      4, "Haswell", "i5-4210U", ddr_generation::ddr3, 4 * GiB, 1, 1, 1, 8,
      {fn({13, 16}), fn({14, 17}), fn({15, 18})}, bit_range(16, 31),
      bit_range(0, 12), kVulnDefault, timing_quality::mobile));
  // No.5: Haswell i7-4790, DDR3 16GiB, (2,1,2,8). Table II prints rows
  // 18~32 which only covers 8GiB; rows extend to 33 here (paper typo).
  ms.push_back(make_machine(
      5, "Haswell", "i7-4790", ddr_generation::ddr3, 16 * GiB, 2, 1, 2, 8,
      {fn({14, 18}), fn({15, 19}), fn({16, 20}), fn({17, 21}),
       fn({7, 8, 9, 12, 13, 18, 19})},
      bit_range(18, 33), concat(bit_range(0, 6), bit_range(8, 13)), kVulnNo5));
  // No.6: Skylake i5-6600, DDR4 16GiB, (2,1,2,16).
  ms.push_back(make_machine(
      6, "Skylake", "i5-6600", ddr_generation::ddr4, 16 * GiB, 2, 1, 2, 16,
      {fn({7, 14}), fn({15, 19}), fn({16, 20}), fn({17, 21}), fn({18, 22}),
       fn({8, 9, 12, 13, 18, 19})},
      bit_range(19, 33), concat(bit_range(0, 7), bit_range(9, 13)),
      kVulnDefault));
  // No.7: Skylake i5-6200U, DDR4 4GiB, (1,1,1,8) — x16 devices, 8 banks.
  ms.push_back(make_machine(
      7, "Skylake", "i5-6200U", ddr_generation::ddr4, 4 * GiB, 1, 1, 1, 8,
      {fn({6, 13}), fn({14, 16}), fn({15, 17})}, bit_range(16, 31),
      bit_range(0, 12), kVulnDefault, timing_quality::noisy));
  // No.8: Coffee Lake i5-9400, DDR4 8GiB, (1,1,1,16).
  ms.push_back(make_machine(
      8, "Coffee Lake", "i5-9400", ddr_generation::ddr4, 8 * GiB, 1, 1, 1, 16,
      {fn({6, 13}), fn({14, 17}), fn({15, 18}), fn({16, 19})},
      bit_range(17, 32), bit_range(0, 12), kVulnDefault));
  // No.9: Coffee Lake i5-9400, DDR4 16GiB, (2,1,2,16).
  ms.push_back(make_machine(
      9, "Coffee Lake", "i5-9400", ddr_generation::ddr4, 16 * GiB, 2, 1, 2, 16,
      {fn({7, 14}), fn({15, 19}), fn({16, 20}), fn({17, 21}), fn({18, 22}),
       fn({8, 9, 12, 13, 18, 19})},
      bit_range(19, 33), concat(bit_range(0, 7), bit_range(9, 13)),
      kVulnDefault));
  return ms;
}

}  // namespace

std::string machine_spec::dram_description() const {
  const double gib = static_cast<double>(memory_bytes) / (1024.0 * 1024 * 1024);
  return to_string(generation) + ", " + std::to_string(static_cast<int>(gib)) +
         "GiB";
}

std::string machine_spec::config_quadruple() const {
  return "(" + std::to_string(channels) + ", " +
         std::to_string(dimms_per_channel) + ", " +
         std::to_string(ranks_per_dimm) + ", " + std::to_string(banks_per_rank) +
         ")";
}

const std::vector<machine_spec>& paper_machines() {
  static const std::vector<machine_spec> machines = build_paper_machines();
  return machines;
}

const machine_spec& machine_by_number(int number) {
  for (const auto& m : paper_machines()) {
    if (m.number == number) return m;
  }
  throw contract_violation("no paper machine No." + std::to_string(number));
}

machine_spec random_machine(unsigned address_bits,
                            unsigned bank_function_count, std::uint64_t seed) {
  DRAMDIG_EXPECTS(address_bits >= 30 && address_bits <= 36);
  DRAMDIG_EXPECTS(bank_function_count >= 3 && bank_function_count <= 6);
  rng r(seed);

  // Intel-shaped layout: 13 column bits at the bottom (8 KiB rows), pure
  // bank bits in the middle, row bits on top. Shared bits are then mixed
  // in the way real controllers do: 2-bit (pure, row) rank/bank selectors,
  // occasionally a (column, pure) pair like Skylake's (6,13), and
  // optionally one wide channel function modelled on (7,8,9,12,13,18,19).
  // The generator respects the paper's empirical observation — the lowest
  // bit of the widest function is a *pure* bank bit, never a column —
  // because DRAMDig's Step 3 is entitled to rely on it.
  constexpr unsigned kColumnBits = 13;
  const bool wide_channel = bank_function_count >= 4 && r.chance(0.5);

  std::vector<unsigned> cols;
  std::vector<unsigned> pure;
  if (wide_channel) {
    // Columns 0..6 and 8..13; bit 7 is the wide function's pure bit.
    for (unsigned b = 0; b <= 13; ++b) {
      if (b != 7) cols.push_back(b);
    }
    pure.push_back(7);
    for (unsigned i = 0; i + 1 < bank_function_count; ++i) {
      pure.push_back(14 + i);
    }
  } else {
    for (unsigned b = 0; b < kColumnBits; ++b) cols.push_back(b);
    for (unsigned i = 0; i < bank_function_count; ++i) {
      pure.push_back(kColumnBits + i);
    }
  }
  const unsigned first_row_bit = pure.back() + 1;
  DRAMDIG_EXPECTS(first_row_bit < address_bits);
  std::vector<unsigned> rows;
  for (unsigned b = first_row_bit; b < address_bits; ++b) rows.push_back(b);

  std::vector<std::uint64_t> funcs;
  for (unsigned i = 0; i + (wide_channel ? 1 : 0) < bank_function_count; ++i) {
    // Middle pure bits pair with a low row bit (or a low column bit, the
    // Skylake (6,13) pattern, or stand alone like Sandy Bridge's (6)).
    const unsigned pure_bit = wide_channel ? pure[i + 1] : pure[i];
    std::uint64_t f = std::uint64_t{1} << pure_bit;
    const double dice = r.uniform();
    if (dice < 0.65) {
      const unsigned row_pick =
          rows[r.below(std::min<std::uint64_t>(rows.size(), 6))];
      f |= std::uint64_t{1} << row_pick;
    } else if (dice < 0.85 && !wide_channel) {
      f |= std::uint64_t{1} << 6;  // shared column bit
    }
    funcs.push_back(f);
  }
  if (wide_channel) {
    // Pure bit 7, a handful of shared columns, one or two shared rows.
    std::uint64_t f = fn({7, 8, 9, 12, 13});
    f |= std::uint64_t{1} << first_row_bit;
    if (r.chance(0.5)) f |= std::uint64_t{1} << (first_row_bit + 1);
    funcs.push_back(f);
  }

  // Decompose the flat bank count into a plausible quadruple so that
  // spec_for() accepts the geometry.
  unsigned channels = 1, ranks = 1, banks = 8;
  ddr_generation gen = ddr_generation::ddr3;
  switch (bank_function_count) {
    case 3: banks = 8; break;
    case 4: banks = 16; gen = ddr_generation::ddr4; break;
    case 5: ranks = 2; banks = 16; gen = ddr_generation::ddr4; break;
    default: channels = 2; ranks = 2; banks = 16; gen = ddr_generation::ddr4;
  }

  machine_spec m{100 + static_cast<int>(seed % 900),
                 "Synthetic",
                 "synth-" + std::to_string(seed),
                 gen,
                 std::uint64_t{1} << address_bits,
                 channels,
                 /*dimms=*/1,
                 ranks,
                 banks,
                 /*ecc=*/false,
                 address_mapping(std::move(funcs), std::move(rows),
                                 std::move(cols), address_bits),
                 kVulnDefault};
  DRAMDIG_ENSURES(m.mapping.is_bijective());
  DRAMDIG_ENSURES(m.mapping.bank_count() == m.total_banks());
  return m;
}

}  // namespace dramdig::dram
