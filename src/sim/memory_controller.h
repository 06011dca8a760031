// The simulated memory controller: the ground-truth DRAM address mapping
// plus per-bank row-buffer state and the latency model. This is the only
// component that knows the true mapping; the reverse-engineering tools may
// touch it exclusively through timed accesses, exactly like the real tools
// can only observe latencies.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dram/mapping.h"
#include "sim/timing_model.h"
#include "sim/virtual_clock.h"
#include "util/rng.h"

namespace dramdig::sim {

/// Result of one timed pair measurement (the paper's `latency(p, p')`).
struct pair_measurement {
  double mean_access_ns = 0.0;  ///< average per-access latency observed
  bool contaminated = false;    ///< a heavy-tail event landed in this sample
};

/// A (p1, p2) physical-address pair submitted to the batch interface.
using addr_pair = std::pair<std::uint64_t, std::uint64_t>;

class memory_controller {
 public:
  memory_controller(const dram::address_mapping& truth, timing_model timing,
                    virtual_clock& clock, rng noise_rng);

  /// Alternate accesses to p1 and p2 (`rounds` accesses to each, clflush
  /// between accesses) and return the mean per-access latency. This is the
  /// workhorse of the timing channel; it is closed-form over the row-buffer
  /// steady state so a measurement costs O(1) host time while still
  /// advancing the virtual clock by the full loop cost.
  [[nodiscard]] pair_measurement measure_pair(std::uint64_t p1,
                                              std::uint64_t p2,
                                              unsigned rounds);

  /// Structure-of-arrays decode of a pair batch: element 2i describes
  /// pairs[i].first, element 2i+1 pairs[i].second. The buffers belong to
  /// the controller and are reused across calls (no per-batch allocation
  /// once warm); the returned reference is valid until the next
  /// decode_pairs / measure_pairs call. Row values are the row-bit-masked
  /// address, not the dense row index — rows are only ever compared for
  /// equality, and the masked form skips the per-bit gather.
  struct decoded_soa {
    std::vector<std::uint64_t> addr;
    std::vector<std::uint64_t> bank;
    std::vector<std::uint64_t> row;
  };

  /// Decode a whole batch into the SoA scratch: validates every address up
  /// front, then runs the branch-lean bank/row extraction (decode_banks)
  /// over the flat address array. Pure — no noise, clock or row-buffer
  /// effects.
  const decoded_soa& decode_pairs(std::span<const addr_pair> pairs);

  /// Service a whole batch of pair measurements in one pass. The address
  /// decodes (bank/row extraction) run through the SoA path above. A
  /// sequential pass then folds the state-carrying reductions in
  /// submission order (row-buffer evolution, per-measurement clock prefix,
  /// burst schedule, counters), and a second pass draws the noise itself —
  /// a pure function of (machine seed, measurement index) through the
  /// counter stream. `out` is bit-identical to calling measure_pair once
  /// per element. The out-param form lets hot callers reuse one result
  /// buffer across thousands of batches.
  void measure_pairs(std::span<const addr_pair> pairs, unsigned rounds,
                     std::vector<pair_measurement>& out);
  [[nodiscard]] std::vector<pair_measurement> measure_pairs(
      std::span<const addr_pair> pairs, unsigned rounds);

  /// Steady-state noiseless per-access latency for an alternating pair —
  /// used by tests to assert the channel's ground truth.
  [[nodiscard]] double ideal_pair_latency_ns(std::uint64_t p1,
                                             std::uint64_t p2) const;

  [[nodiscard]] const dram::address_mapping& truth() const noexcept {
    return truth_;
  }
  [[nodiscard]] const timing_model& timing() const noexcept { return timing_; }
  [[nodiscard]] virtual_clock& clock() noexcept { return clock_; }

  /// Total accesses simulated (bulk loops included) — the cost metric
  /// behind Fig. 2 alongside virtual time.
  [[nodiscard]] std::uint64_t access_count() const noexcept {
    return access_count_;
  }
  /// Total pair measurements taken.
  [[nodiscard]] std::uint64_t measurement_count() const noexcept {
    return measurement_count_;
  }

 private:
  /// Decoded DRAM coordinates of one pair, produced by the decode phase and
  /// consumed by the noise phase.
  struct decoded_pair {
    std::uint64_t bank1 = 0, row1 = 0;
    std::uint64_t bank2 = 0, row2 = 0;
    double ideal_ns = 0.0;
  };

  /// Per-bank row-buffer entry; `open` distinguishes a precharged bank
  /// from one holding row 0.
  struct open_row {
    std::uint64_t row = 0;
    bool open = false;
  };

  /// How many of a measurement's 2*rounds accesses landed in each
  /// row-buffer situation; the stochastic tail only consumes the counts.
  struct access_tally {
    std::uint64_t hits = 0;
    std::uint64_t closed = 0;
    std::uint64_t conflicts = 0;
  };

  /// One access's row-buffer situation against a bank's current state.
  enum class touch { closed, hit, conflict };
  [[nodiscard]] static touch classify(const open_row& slot,
                                      std::uint64_t row) noexcept {
    if (!slot.open) return touch::closed;
    return slot.row == row ? touch::hit : touch::conflict;
  }

  [[nodiscard]] decoded_pair decode_pair(std::uint64_t p1,
                                         std::uint64_t p2) const;

  /// O(1) tally of the alternating 2*rounds access loop, which visits at
  /// most three row-buffer situations: the first access to each address
  /// is classified against the pre-measurement row-buffer state, every
  /// later access sits in the alternating steady state.
  [[nodiscard]] access_tally tally_closed_form(const decoded_pair& d,
                                               unsigned rounds) const;

  /// The stochastic tail of one measurement: noise draws, clock charge,
  /// counters and row-buffer update. Must run in submission order (only
  /// its draws are order-free; the state folds are not).
  [[nodiscard]] pair_measurement finish_measurement(const decoded_pair& d,
                                                    unsigned rounds);

  /// The batch tail over a decode_pairs result: sequential state fold,
  /// then the noise pass.
  void finish_batch_counter(const decoded_soa& d, unsigned rounds,
                            std::vector<pair_measurement>& out);

  /// Counter-stream domain of the measurement noise (the block's second
  /// counter word). Its value keys every recorded noise sequence.
  static constexpr std::uint64_t kMeasureNoiseDomain = 1;

  dram::address_mapping truth_;
  timing_model timing_;
  virtual_clock& clock_;
  rng rng_;  ///< the machine's noise seed: keys counter_ and burst_rng_
  noise_stream counter_;  ///< measurement noise
  std::vector<open_row> open_rows_;  ///< flat table indexed by flat bank id
  std::uint64_t row_mask_ = 0;       ///< OR of the mapping's row bits
  decoded_soa soa_;                  ///< batch decode scratch, reused
  std::uint64_t access_count_ = 0;
  std::uint64_t measurement_count_ = 0;

  /// Counter-tail scratch (reused): per-measurement noiseless mean and
  /// effective contamination rate, produced by the sequential fold and
  /// consumed by the noise pass.
  struct tail_scratch {
    std::vector<double> mean_base;
    std::vector<double> contam_p;
  };
  tail_scratch tail_;

  // Background-load burst schedule, advanced lazily with virtual time.
  mutable std::uint64_t burst_start_ns_ = 0;
  mutable std::uint64_t burst_end_ns_ = 0;
  mutable rng burst_rng_{0};

  void advance_burst_schedule_to(std::uint64_t now_ns) const;
  [[nodiscard]] bool in_burst_at(std::uint64_t now_ns) const;
  [[nodiscard]] double effective_contamination_at(std::uint64_t now_ns) const;
};

}  // namespace dramdig::sim
