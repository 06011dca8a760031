#include "timing/channel.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace dramdig::timing {

namespace {

/// Stop once the last kStableChecks consecutive valley estimates all sit
/// within this relative band of each other.
constexpr double kStability = 0.02;
constexpr std::size_t kStableChecks = 3;
/// Sibling-threshold prior: once kPriorMinPairs samples are in and
/// kPriorChecks consecutive estimates agree both with each other and with
/// the prior (within kPriorBand, relative), further pairs buy nothing.
constexpr double kPriorBand = 0.1;
constexpr unsigned kPriorMinPairs = 120;
constexpr std::size_t kPriorChecks = 2;

/// Smallest and largest of the last `k` estimates (requires size >= k).
std::pair<double, double> last_range(const std::vector<double>& estimates,
                                     std::size_t k) {
  const auto [lo, hi] = std::minmax_element(
      estimates.end() - static_cast<std::ptrdiff_t>(k), estimates.end());
  return {*lo, *hi};
}

}  // namespace

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

double channel::calibrate(const std::vector<std::uint64_t>& pool,
                          double prior_ns) {
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
    // Re-estimate the valley every `chunk` pairs from calibration_min_pairs
    // on and stop once the last few estimates agree within the stability
    // band; the budget (calibration_pairs) bounds the worst case. A
    // sibling-threshold prior (fleet warm start) adds a second, lighter
    // checkpoint schedule — smaller steps, earlier first estimate — that
    // stops as soon as its estimates agree with each other AND the prior.
    // The threshold is still this machine's own valley; the prior only
    // decides when sampling more pairs stops being informative. The two
    // schedules keep separate estimate lists, so a wrong prior, which
    // never matches, leaves the normal schedule's stop point (and with it
    // the pairs drawn and the threshold) exactly as without a prior.
    const bool prior = prior_ns > 0;
    const std::size_t budget = config_.calibration_pairs;
    const std::size_t chunk = std::max(1u, config_.calibration_chunk);
    const std::size_t prior_min =
        std::min(kPriorMinPairs, config_.calibration_min_pairs);
    const std::size_t prior_chunk =
        std::min<std::size_t>(chunk, kPriorMinPairs / 2);
    // The k-th checkpoint of a schedule: the first multiple of `step` at or
    // past `first`, then every `step` pairs, capped at the budget.
    const auto next_stop = [budget](std::size_t have, std::size_t first,
                                    std::size_t step) {
      const std::size_t base = std::max(have + 1, first);
      return std::min(budget, (base + step - 1) / step * step);
    };
    std::vector<double> estimates, prior_estimates;
    while (calibration_samples_.size() < budget) {
      const std::size_t have = calibration_samples_.size();
      const std::size_t normal_at =
          next_stop(have, config_.calibration_min_pairs, chunk);
      const std::size_t prior_at =
          prior ? next_stop(have, prior_min, prior_chunk) : budget;
      const std::size_t at = std::min(normal_at, prior_at);
      sample_calibration_chunk(pool, at - have);
      if (prior && at == prior_at) {
        prior_estimates.push_back(valley_threshold(calibration_samples_));
        if (prior_estimates.size() >= kPriorChecks) {
          const auto [lo, hi] = last_range(prior_estimates, kPriorChecks);
          const double band = kPriorBand * std::max(prior_ns, 1e-9);
          if (hi - lo <= band &&
              std::abs(prior_estimates.back() - prior_ns) <= band) {
            break;  // local estimates confirm the sibling threshold
          }
        }
      }
      if (at == normal_at) {
        estimates.push_back(valley_threshold(calibration_samples_));
        if (estimates.size() >= kStableChecks) {
          const auto [lo, hi] = last_range(estimates, kStableChecks);
          if (hi - lo <= kStability * std::max(hi, 1e-9)) {
            break;  // the valley stopped moving: further pairs buy nothing
          }
        }
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
