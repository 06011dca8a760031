// Latency parameters of the simulated memory system.
//
// Values approximate an uncached access on a desktop DDR3/DDR4 platform as
// seen from userspace with rdtsc (the paper's measurement setup): a row-hit
// access is fast; a row-buffer conflict pays precharge + activate on top.
// The noise terms are what make reverse engineering nontrivial: Gaussian
// jitter on every access plus occasional heavy-tailed contamination
// (scheduler preemption, refresh collision), which is what DRAMDig's
// delta/per_threshold slack in Algorithm 2 exists to absorb.
#pragma once

namespace dramdig::sim {

struct timing_model {
  double row_hit_ns = 165.0;       ///< open-row access, uncached
  double row_closed_ns = 250.0;    ///< bank precharged, one activate
  double row_conflict_ns = 330.0;  ///< wrong row open: precharge + activate
  double clflush_ns = 55.0;        ///< per-access cache-line flush cost
  double loop_overhead_ns = 15.0;  ///< mfence + loop bookkeeping per access

  double access_noise_sigma_ns = 9.0;   ///< per-access Gaussian jitter
  double contamination_chance = 0.01;   ///< heavy-tail event per measurement
  double contamination_max_ns = 400.0;  ///< uniform [0, max) added when hit

  /// Background-load bursts: every so often the system gets busy for a few
  /// seconds and the heavy-tail rate multiplies. Tools that re-verify
  /// (DRAMDig's min filter + pile checks) ride bursts out; tools built
  /// on single-sample scans (DRAMA) produce polluted clusters during them.
  double burst_mean_interval_s = 150.0;  ///< exponential inter-arrival
  double burst_mean_duration_s = 4.0;    ///< exponential duration
  double burst_contamination_factor = 25.0;
};

}  // namespace dramdig::sim
