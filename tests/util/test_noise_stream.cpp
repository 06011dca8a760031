#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace dramdig {
namespace {

// The counter engine backs the simulator's parallel measurement tail, so
// these tests pin the two properties everything rests on: each draw is a
// pure function of (key, domain, index) — order and batching never matter —
// and the draws actually follow the distributions the timing model asks
// for. The statistical bands use a fixed seed, so they are deterministic
// regression checks, sized from the usual standard errors at n = 2^20.

TEST(NoiseStream, SameSeedSameDraws) {
  const auto a = noise_stream::from_seed(42);
  const auto b = noise_stream::from_seed(42);
  for (std::uint64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(a.block(0, i).v0, b.block(0, i).v0);
    EXPECT_DOUBLE_EQ(a.gaussian(1, i, 3.0, 2.0), b.gaussian(1, i, 3.0, 2.0));
  }
}

TEST(NoiseStream, AdjacentSeedsDecorrelate) {
  // splitmix64 key expansion: seeds 7 and 8 must not yield related streams.
  const auto a = noise_stream::from_seed(7);
  const auto b = noise_stream::from_seed(8);
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    same += a.block(0, i).v0 == b.block(0, i).v0;
  }
  EXPECT_EQ(same, 0);
}

TEST(NoiseStream, DomainsAreIndependent) {
  const auto s = noise_stream::from_seed(5);
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    same += s.block(0, i).v0 == s.block(1, i).v0;
  }
  EXPECT_EQ(same, 0);
}

TEST(NoiseStream, DrawsAreOrderFree) {
  // The property the parallel tail exploits: reading indices backwards,
  // shuffled, or twice yields exactly the forward sequence's values.
  const auto s = noise_stream::from_seed(11);
  std::vector<double> forward(512);
  for (std::uint64_t i = 0; i < forward.size(); ++i) {
    forward[i] = s.gaussian(3, i, 0.0, 1.0);
  }
  for (std::uint64_t i = forward.size(); i-- > 0;) {
    EXPECT_DOUBLE_EQ(s.gaussian(3, i, 0.0, 1.0), forward[i]);
  }
}

TEST(NoiseStream, UniformKolmogorovSmirnov) {
  // KS test of 2^20 uniforms against U(0,1). The critical value at
  // alpha = 1e-3 is ~1.95/sqrt(n) ~= 0.0019; 0.0025 leaves slack while
  // still catching any real distributional defect.
  const auto s = noise_stream::from_seed(31);
  constexpr std::size_t kN = 1u << 20;
  std::vector<double> u(kN);
  for (std::size_t i = 0; i < kN; ++i) u[i] = s.uniform(0, i);
  std::sort(u.begin(), u.end());
  double d = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_GE(u[i], 0.0);
    EXPECT_LT(u[i], 1.0);
    const double lo = static_cast<double>(i) / kN;
    const double hi = static_cast<double>(i + 1) / kN;
    d = std::max({d, u[i] - lo, hi - u[i]});
  }
  EXPECT_LT(d, 0.0025);
}

TEST(NoiseStream, GaussianMomentsAndTails) {
  // 2^20 standard-normal deviates via the Acklam inverse CDF. Standard
  // errors at this n: mean ~0.001, variance ~0.0014, tail fractions
  // ~5e-5 — each band below is several standard errors wide.
  const auto s = noise_stream::from_seed(37);
  constexpr std::size_t kN = 1u << 20;
  std::vector<double> z(kN);
  for (std::size_t i = 0; i < kN; ++i) z[i] = s.gaussian(0, i, 0.0, 1.0);

  double sum = 0.0, sq = 0.0, cube = 0.0;
  std::size_t over1 = 0, over2 = 0, over3 = 0;
  for (const double x : z) {
    sum += x;
    sq += x * x;
    cube += x * x * x;
    const double a = std::abs(x);
    over1 += a > 1.0;
    over2 += a > 2.0;
    over3 += a > 3.0;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(cube / kN, 0.0, 0.03);  // symmetric: third moment vanishes
  // Two-sided tail masses: 2*(1 - Phi(z)).
  EXPECT_NEAR(over1 / double(kN), 0.3173, 0.005);
  EXPECT_NEAR(over2 / double(kN), 0.0455, 0.002);
  EXPECT_NEAR(over3 / double(kN), 0.0027, 0.0006);
}

TEST(NoiseStream, GaussianScalesMeanAndSigma) {
  const auto s = noise_stream::from_seed(41);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const double z = s.gaussian(0, i, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(s.gaussian(0, i, 100.0, 15.0), 100.0 + 15.0 * z);
  }
}

TEST(NoiseStream, BernoulliRateMatchesProbability) {
  const auto s = noise_stream::from_seed(43);
  constexpr std::size_t kN = 1u << 20;
  for (const double p : {0.0, 0.02, 0.3, 1.0}) {
    std::size_t on = 0;
    for (std::size_t i = 0; i < kN; ++i) on += s.bernoulli(0, i, p);
    EXPECT_NEAR(on / double(kN), p, 0.002) << "p=" << p;
  }
}

TEST(NoiseStream, CounterGaussianInvertsKnownQuantiles) {
  // Spot-check the inverse CDF against textbook quantiles by feeding words
  // whose counter_unit image is the target u. |rel err| of Acklam's
  // approximation is < 1.2e-9, so 1e-6 absolute is generous.
  const auto word_for = [](double u) {
    return static_cast<std::uint64_t>(u * 0x1.0p53) << 11;
  };
  EXPECT_NEAR(counter_gaussian(word_for(0.5)), 0.0, 1e-6);
  EXPECT_NEAR(counter_gaussian(word_for(0.975)), 1.959964, 1e-5);
  EXPECT_NEAR(counter_gaussian(word_for(0.025)), -1.959964, 1e-5);
  EXPECT_NEAR(counter_gaussian(word_for(0.999)), 3.090232, 1e-5);
  // Tail branch (u < 0.02425) engages and stays finite.
  EXPECT_NEAR(counter_gaussian(word_for(0.001)), -3.090232, 1e-5);
  EXPECT_TRUE(std::isfinite(counter_gaussian(0)));
  EXPECT_TRUE(std::isfinite(counter_gaussian(~std::uint64_t{0})));
}

}  // namespace
}  // namespace dramdig
