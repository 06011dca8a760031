#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

namespace dramdig {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.below(1000), b.below(1000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.below(1'000'000) == b.below(1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  rng r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  rng r(6);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowZeroRejected) {
  rng r(7);
  EXPECT_THROW((void)r.below(0), contract_violation);
}

TEST(Rng, BetweenInclusive) {
  rng r(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GaussianMoments) {
  rng r(12);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.gaussian(100, 15);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 100, 1.0);
  EXPECT_NEAR(var, 225, 20.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  rng a(13);
  rng child = a.fork();
  // The child stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.below(1'000'000) == child.below(1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicGivenParentSeed) {
  rng a(14), b(14);
  rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ca.below(1000), cb.below(1000));
  }
}

// ---------------------------------------------------------------------------
// The in-repo engine and the canonical conversion reproduce the standard
// library draw for draw: every seeded component's output depends on it.

TEST(Mt19937_64, MatchesStdEngineForEverySeed) {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  std::mt19937_64 seeder(2024);
  for (int i = 0; i < 4; ++i) seeds.push_back(seeder());
  for (const std::uint64_t seed : seeds) {
    mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += ours() != ref();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64, DefaultSeedMatchesStdEngine) {
  mt19937_64 ours;
  std::mt19937_64 ref;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(ours(), ref()) << "draw " << i;
}

TEST(Mt19937_64, CopyTakenMidBlockContinuesIdentically) {
  mt19937_64 ours(77);
  std::mt19937_64 ref(77);
  for (int i = 0; i < 1000; ++i) {  // 1000 = 3 blocks of 312, plus 64
    ASSERT_EQ(ours(), ref());
  }
  mt19937_64 copy = ours;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t want = ref();
    ASSERT_EQ(ours(), want) << "draw " << i;
    ASSERT_EQ(copy(), want) << "draw " << i;
  }
}

TEST(Mt19937_64, ShuffleMatchesStdEngine) {
  std::vector<int> ours(1000), ref(1000);
  for (int i = 0; i < 1000; ++i) ours[i] = ref[i] = i;
  rng r(31);
  std::mt19937_64 engine(31);
  std::shuffle(ours.begin(), ours.end(), r.engine());
  std::shuffle(ref.begin(), ref.end(), engine);
  EXPECT_EQ(ours, ref);
}

#ifdef __GLIBCXX__
// The reference values below are libstdc++'s: generate_canonical and the
// distributions built on it are implementation-defined.

/// A URBG that returns one fixed word, to feed crafted words to
/// std::generate_canonical.
struct fixed_word {
  using result_type = std::uint64_t;
  std::uint64_t word = 0;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(CanonicalUnit, MatchesGenerateCanonicalOnCraftedWords) {
  std::vector<std::uint64_t> words;
  constexpr std::uint64_t k2p53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k2p63 = std::uint64_t{1} << 63;
  for (std::uint64_t k = 0; k < 100'000; ++k) {
    words.insert(words.end(), {k, k2p53 + k, k2p53 - k - 1, k2p63 + k,
                               k2p63 - k - 1, ~std::uint64_t{0} - k});
  }
  std::size_t mismatches = 0;
  for (const std::uint64_t w : words) {
    fixed_word g{w};
    const double want = std::generate_canonical<double, 53>(g);
    const double got = canonical_unit(w);
    if (!same_bits(got, want)) {
      if (++mismatches < 5) ADD_FAILURE() << "word " << w;
    }
    ASSERT_LT(got, 1.0);
    // chance(p) tests the unit value against p exactly as
    // bernoulli_distribution does, at p equal to it and one ulp above.
    for (const double p : {got, std::nextafter(got, 2.0), 0.5}) {
      if ((got < p) != std::bernoulli_distribution(p)(g)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CanonicalUnit, TopWordsClampBelowOne) {
  // The largest words round to 2^64; generate_canonical clamps them to
  // the largest double below 1.
  EXPECT_EQ(canonical_unit(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical_unit(0), 0.0);
}

TEST(CanonicalUnit, RngDrawsMatchStdDistributions) {
  rng ours(4242);
  std::mt19937_64 ref(4242);
  const double probabilities[] = {0.0, 1e-9, 0.1, 0.3, 0.5, 0.9, 1.0};
  std::size_t mismatches = 0;
  for (int i = 0; i < 5'000'000; ++i) {
    const double want = std::uniform_real_distribution<double>(0.0, 1.0)(ref);
    if (!same_bits(ours.uniform(), want)) ++mismatches;
    const double p = probabilities[i % std::size(probabilities)];
    if (ours.chance(p) != std::bernoulli_distribution(p)(ref)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CanonicalUnit, GaussianAndIntegerDrawsMatchStdDistributions) {
  rng ours(99);
  std::mt19937_64 ref(99);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(ours.below(1000 + i),
              std::uniform_int_distribution<std::uint64_t>(0, 999 + i)(ref));
    ASSERT_EQ(ours.between(-5, i),
              std::uniform_int_distribution<std::int64_t>(-5, i)(ref));
    ASSERT_TRUE(same_bits(ours.gaussian(100, 15),
                          std::normal_distribution<double>(100, 15)(ref)));
  }
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace dramdig
