#include "timing/channel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.h"
#include "util/histogram.h"

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

sim::addr_pair draw_distinct_pair(std::span<const std::uint64_t> pool,
                                  rng& r) {
  DRAMDIG_EXPECTS(pool.size() >= 2);
  for (;;) {
    const std::uint64_t a = pool[r.below(pool.size())];
    const std::uint64_t b = pool[r.below(pool.size())];
    if (a != b) return {a, b};
    // Only a collision pays for this scan, and it stops at the first
    // address that differs from `a`.
    DRAMDIG_EXPECTS(std::any_of(pool.begin(), pool.end(),
                                [a](std::uint64_t x) { return x != a; }));
  }
}

channel::channel(sim::memory_controller& controller, channel_config config,
                 rng r)
    : controller_(controller), config_(config), rng_(std::move(r)) {
  DRAMDIG_EXPECTS(config_.rounds_per_measurement > 0);
}

void channel::sample_calibration_chunk(const std::vector<std::uint64_t>& pool,
                                       std::size_t pairs) {
  // Pair draws are independent of the measurements, so the chunk is drawn
  // up front and serviced as one controller batch — each pair duplicated,
  // min-of-two over the adjacent readings (contamination is one-sided, so
  // the lower reading is always the cleaner one). Bit-identical to
  // measuring each pair twice in a row, at batch host cost.
  pair_scratch_.clear();
  pair_scratch_.reserve(pairs * 2);
  for (std::size_t i = 0; i < pairs; ++i) {
    const sim::addr_pair pair = draw_distinct_pair(pool, rng_);
    pair_scratch_.push_back(pair);
    pair_scratch_.push_back(pair);
  }
  measure_batch(pair_scratch_, latency_scratch_);
  for (std::size_t i = 0; i < pairs; ++i) {
    calibration_samples_.push_back(
        std::min(latency_scratch_[2 * i], latency_scratch_[2 * i + 1]));
  }
  calibration_pairs_used_ += pairs;
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

void channel::measure_batch(std::span<const sim::addr_pair> pairs,
                            std::vector<double>& out) {
  controller_.measure_pairs(pairs, config_.rounds_per_measurement,
                            measurement_scratch_);
  out.resize(measurement_scratch_.size());
  for (std::size_t i = 0; i < measurement_scratch_.size(); ++i) {
    out[i] = measurement_scratch_[i].mean_access_ns;
  }
}

void channel::is_sbdr_strict_batch(std::span<const sim::addr_pair> pairs,
                                   std::span<const double> prior,
                                   std::vector<char>& out) {
  DRAMDIG_EXPECTS(calibrated());
  DRAMDIG_EXPECTS(prior.empty() || prior.size() == pairs.size());
  const auto folded = [&](std::size_t i) {
    return !prior.empty() && !std::isnan(prior[i]);
  };
  const auto fresh = [&](std::size_t i) {
    return strict_samples() - (folded(i) ? 1u : 0u);
  };
  pair_scratch_.clear();
  pair_scratch_.reserve(pairs.size() * strict_samples());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pair_scratch_.insert(pair_scratch_.end(), fresh(i), pairs[i]);
  }
  measure_batch(pair_scratch_, latency_scratch_);
  out.resize(pairs.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double lowest =
        folded(i) ? prior[i] : std::numeric_limits<double>::infinity();
    for (unsigned k = 0; k < fresh(i); ++k) {
      lowest = std::min(lowest, latency_scratch_[at++]);
    }
    out[i] = lowest > threshold_ns_ ? 1 : 0;
  }
}

}  // namespace dramdig::timing
