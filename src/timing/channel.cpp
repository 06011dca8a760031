#include "timing/channel.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace dramdig::timing {

channel::channel(sim::memory_controller& controller, channel_config config,
                 rng r)
    : controller_(controller), config_(config), rng_(std::move(r)) {
  DRAMDIG_EXPECTS(config_.rounds_per_measurement > 0);
  DRAMDIG_EXPECTS(config_.samples_per_latency >= 1);
}

std::size_t channel::sample_calibration_chunk(
    const std::vector<std::uint64_t>& pool, std::size_t pairs) {
  // Pair draws are independent of the measurements, so the chunk is drawn
  // up front and serviced as one controller batch — each pair duplicated,
  // min-of-two over the adjacent readings (contamination is one-sided, so
  // the lower reading is always the cleaner one). Bit-identical to the
  // scalar two-measurement loop, at batch host cost.
  std::vector<sim::addr_pair> batch;
  batch.reserve(pairs * 2);
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::uint64_t a = pool[rng_.below(pool.size())];
    const std::uint64_t b = pool[rng_.below(pool.size())];
    if (a == b) {
      --i;
      continue;
    }
    batch.emplace_back(a, b);
    batch.emplace_back(a, b);
  }
  const std::vector<double> latencies = measure_batch(batch);
  for (std::size_t i = 0; i < pairs; ++i) {
    calibration_samples_.push_back(
        std::min(latencies[2 * i], latencies[2 * i + 1]));
  }
  calibration_pairs_used_ += pairs;
  return pairs;
}

double channel::calibrate(const std::vector<std::uint64_t>& pool) {
  DRAMDIG_EXPECTS(pool.size() >= 2);
  calibration_pairs_used_ = 0;
  // Up to three calibration rounds: a background-load burst can smear the
  // fast mode across the whole histogram and put the valley in a useless
  // place, which a sanity check on the slow-fraction detects (random pairs
  // conflict with probability ~1/#banks, so anywhere outside [0.5%, 35%]
  // means the threshold is lying).
  for (unsigned round = 0; round < 3; ++round) {
    calibration_samples_.clear();
    calibration_samples_.reserve(config_.calibration_pairs);
    // Re-estimate the valley after every chunk and stop once the last few
    // estimates agree within the stability band; the budget
    // (calibration_pairs) bounds the worst case. A sibling-threshold prior
    // (fleet warm start) authorizes a lighter schedule: smaller chunks,
    // earlier first estimate, and a stop as
    // soon as the local estimates agree with each other AND the prior —
    // the threshold is still this machine's own valley, the prior only
    // decides when sampling more pairs stops being informative. A wrong
    // prior never matches and falls through to the normal schedule.
    const bool prior = config_.calibration_prior_ns > 0;
    const std::size_t min_first =
        prior ? std::min<std::size_t>(config_.calibration_prior_min_pairs,
                                      config_.calibration_min_pairs)
              : config_.calibration_min_pairs;
    const std::size_t chunk = std::max<std::size_t>(
        1, prior ? std::min(config_.calibration_chunk,
                            std::max(1u, config_.calibration_prior_min_pairs /
                                             2))
                 : config_.calibration_chunk);
    std::vector<double> estimates;
    while (calibration_samples_.size() < config_.calibration_pairs) {
      const std::size_t want = std::min<std::size_t>(
          chunk, config_.calibration_pairs - calibration_samples_.size());
      sample_calibration_chunk(pool, want);
      if (calibration_samples_.size() < min_first) continue;
      estimates.push_back(valley_threshold(calibration_samples_));
      if (prior) {
        const unsigned pneed = std::max(1u, config_.calibration_prior_checks);
        if (estimates.size() >= pneed) {
          double lo = estimates.back(), hi = estimates.back();
          for (std::size_t k = estimates.size() - pneed;
               k < estimates.size(); ++k) {
            lo = std::min(lo, estimates[k]);
            hi = std::max(hi, estimates[k]);
          }
          const double band = config_.calibration_prior_band *
                              std::max(config_.calibration_prior_ns, 1e-9);
          if (hi - lo <= band &&
              std::abs(estimates.back() - config_.calibration_prior_ns) <=
                  band) {
            break;  // local estimates confirm the sibling threshold
          }
        }
      }
      if (calibration_samples_.size() < config_.calibration_min_pairs) {
        continue;
      }
      const unsigned need = std::max(2u, config_.calibration_stable_checks);
      if (estimates.size() < need) continue;
      double lo = estimates.back(), hi = estimates.back();
      for (std::size_t k = estimates.size() - need; k < estimates.size();
           ++k) {
        lo = std::min(lo, estimates[k]);
        hi = std::max(hi, estimates[k]);
      }
      if (hi - lo <= config_.calibration_stability * std::max(hi, 1e-9)) {
        break;  // the valley stopped moving: further pairs buy nothing
      }
    }
    threshold_ns_ = valley_threshold(calibration_samples_);
    std::size_t above = 0;
    for (double s : calibration_samples_) above += s > threshold_ns_;
    const double frac =
        static_cast<double>(above) /
        static_cast<double>(calibration_samples_.size());
    if (frac > 0.005 && frac < 0.35) break;
  }
  return threshold_ns_;
}

void channel::set_threshold(double ns) {
  DRAMDIG_EXPECTS(ns > 0);
  threshold_ns_ = ns;
}

double channel::latency(std::uint64_t p1, std::uint64_t p2) {
  std::vector<double> samples;
  samples.reserve(config_.samples_per_latency);
  for (unsigned i = 0; i < config_.samples_per_latency; ++i) {
    samples.push_back(
        controller_.measure_pair(p1, p2, config_.rounds_per_measurement)
            .mean_access_ns);
  }
  return median(std::move(samples));
}

bool channel::is_sbdr(std::uint64_t p1, std::uint64_t p2) {
  DRAMDIG_EXPECTS(calibrated());
  return latency(p1, p2) > threshold_ns_;
}

bool channel::is_sbdr_fast(std::uint64_t p1, std::uint64_t p2) {
  DRAMDIG_EXPECTS(calibrated());
  return controller_.measure_pair(p1, p2, config_.rounds_per_measurement)
             .mean_access_ns > threshold_ns_;
}

bool channel::is_sbdr_strict(std::uint64_t p1, std::uint64_t p2) {
  const sim::addr_pair pair{p1, p2};
  return is_sbdr_strict_batch({&pair, 1}).front() != 0;
}

void channel::measure_batch(std::span<const sim::addr_pair> pairs,
                            std::vector<double>& out) {
  controller_.measure_pairs(pairs, config_.rounds_per_measurement,
                            measurement_scratch_);
  out.resize(measurement_scratch_.size());
  for (std::size_t i = 0; i < measurement_scratch_.size(); ++i) {
    out[i] = measurement_scratch_[i].mean_access_ns;
  }
}

std::vector<double> channel::measure_batch(
    std::span<const sim::addr_pair> pairs) {
  std::vector<double> out;
  measure_batch(pairs, out);
  return out;
}

void channel::is_sbdr_fast_batch(std::uint64_t pivot,
                                 std::span<const std::uint64_t> partners,
                                 std::vector<char>& out) {
  DRAMDIG_EXPECTS(calibrated());
  pair_scratch_.clear();
  pair_scratch_.reserve(partners.size());
  for (std::uint64_t p : partners) pair_scratch_.emplace_back(pivot, p);
  measure_batch(pair_scratch_, latency_scratch_);
  out.resize(latency_scratch_.size());
  for (std::size_t i = 0; i < latency_scratch_.size(); ++i) {
    out[i] = latency_scratch_[i] > threshold_ns_ ? 1 : 0;
  }
}

std::vector<char> channel::is_sbdr_fast_batch(
    std::uint64_t pivot, std::span<const std::uint64_t> partners) {
  std::vector<char> out;
  is_sbdr_fast_batch(pivot, partners, out);
  return out;
}

void channel::is_sbdr_strict_batch(std::span<const sim::addr_pair> pairs,
                                   std::vector<char>& out) {
  DRAMDIG_EXPECTS(calibrated());
  const unsigned per_pair = strict_samples();
  pair_scratch_.clear();
  pair_scratch_.reserve(pairs.size() * per_pair);
  for (const sim::addr_pair& p : pairs) {
    for (unsigned i = 0; i < per_pair; ++i) pair_scratch_.push_back(p);
  }
  measure_batch(pair_scratch_, latency_scratch_);
  out.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double lowest = 1e300;
    for (unsigned k = 0; k < per_pair; ++k) {
      lowest = std::min(lowest, latency_scratch_[i * per_pair + k]);
    }
    out[i] = lowest > threshold_ns_ ? 1 : 0;
  }
}

std::vector<char> channel::is_sbdr_strict_batch(
    std::span<const sim::addr_pair> pairs) {
  std::vector<char> out;
  is_sbdr_strict_batch(pairs, out);
  return out;
}

}  // namespace dramdig::timing
