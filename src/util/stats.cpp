#include "util/stats.h"

#include <algorithm>
#include <numeric>

#include "util/expect.h"

namespace dramdig {

double mean(const std::vector<double>& xs) {
  DRAMDIG_EXPECTS(!xs.empty());
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  DRAMDIG_EXPECTS(!xs.empty());
  const double m = mean(xs);
  double acc = 0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  DRAMDIG_EXPECTS(!xs.empty());
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  if (xs.size() % 2 == 1) return xs[mid];
  const double hi = xs[mid];
  const double lo =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double percentile(std::vector<double> xs, double p) {
  DRAMDIG_EXPECTS(!xs.empty());
  DRAMDIG_EXPECTS(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double min_of(const std::vector<double>& xs) {
  DRAMDIG_EXPECTS(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  DRAMDIG_EXPECTS(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace dramdig
