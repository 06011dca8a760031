// Xiao et al. baseline (USENIX Security'16, "One Bit Flips, One Cloud
// Flops"), modelled on the behaviour the DRAMDig authors observed when
// running the code shared with them (paper §IV-A): efficient and
// deterministic on the DDR3 configurations the tool was developed for,
// stuck on everything else — e.g. on machine No.6 it resolved
// (16,20), (17,21), (18,22) as 3 of the 6 functions and then hung.
//
// The model: a library of per-microarchitecture templates (Sandy Bridge,
// single-channel Ivy Bridge, Haswell — the authors' machines), verified by
// timing before being accepted; off-template machines fall back to a
// stride scan that can only discover XOR pairs (i, i+k) for small k whose
// bits feed no wider function, which is precisely why the multi-bit
// channel functions of newer parts starve it.
//
// The tool's parameters (rounds per measurement, samples per verdict,
// template verification pairs and agreement, scan strides, stall budget)
// are named constants in xiao.cpp; the config holds only the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/environment.h"
#include "core/run_record.h"
#include "dram/mapping.h"

namespace dramdig::timing {
class channel;
}

namespace dramdig::baselines {

struct xiao_config {
  std::uint64_t tool_seed = 1;
};

class xiao_tool {
 public:
  explicit xiao_tool(core::environment& env, xiao_config config = {});

  /// Run the template path, then the scans. `on_phase` gets one event per
  /// completed stage ("calibration", "template", "row-scan", "bit-scan",
  /// "stride-scan", and "stall" when the stall budget is charged) carrying
  /// that stage's clock/measurement delta — the deltas sum to the run's
  /// totals. The record's outcome is "success" or "stuck"; a run stuck
  /// short of the bank functions names the ones it resolved in its detail
  /// and failure reason. Its phases hold one terminal "scan" entry.
  [[nodiscard]] core::tool_result run(
      const core::phase_callback& on_phase = {});

 private:
  core::environment& env_;
  xiao_config config_;
};

/// True when the machine belongs to the tool's supported family (DDR3
/// Sandy Bridge, single-channel DDR3 Ivy Bridge, DDR3 Haswell).
[[nodiscard]] bool xiao_supports(const dram::machine_spec& spec);

/// The tool's SBDR verdict: the median of `samples` single-sample pair
/// latencies above the channel's threshold. The samples are one
/// measure_batch of `samples` copies of the pair, bit-identical to
/// `samples` one-pair batches in a row.
[[nodiscard]] bool xiao_sbdr(timing::channel& channel, std::uint64_t p1,
                             std::uint64_t p2, unsigned samples);

}  // namespace dramdig::baselines
