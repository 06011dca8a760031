// Deterministic random number generation. Every stochastic component in the
// project (timing noise, allocator fragmentation, DRAMA's random pools, the
// rowhammer cell lottery) draws from an explicitly seeded rng so that tests
// and benchmark tables are reproducible run to run.
//
// Two substrates live here:
//   * `rng` — a sequential MT19937-64 stream (`mt19937_64` below, the
//     in-repo engine, output-identical to std::mt19937_64). Sample i
//     depends on every draw before it, so consumers that share one stream
//     serialize.
//   * `noise_stream` — a counter-based (Philox-style, Salmon et al.,
//     "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) generator:
//     sample i is a pure function of (key, domain, i), with constant
//     consumption per sample. This is what lets the simulator's batch
//     tail draw each measurement's noise by its index alone and still
//     equal the scalar measure_pair sequence draw for draw.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/expect.h"

namespace dramdig {

/// MT19937-64 (Matsumoto & Nishimura, "Mersenne Twister: a
/// 623-dimensionally equidistributed uniform pseudorandom number
/// generator", TOMACS 1998; 64-bit parameters of Nishimura, TOMACS 2000):
/// the same seeding recurrence, twist and tempering as std::mt19937_64, so
/// every draw equals the standard engine's for the same seed. The twist is
/// written branch-free, which lets the compiler vectorize it with the
/// baseline instruction set (libstdc++'s twist selects on the low bit and
/// stays scalar without AVX2). A UniformRandomBitGenerator, so
/// std::shuffle and the standard distributions take it unchanged.
class mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;

  explicit mt19937_64(result_type seed = default_seed) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  result_type operator()() noexcept {
    if (next_ >= state_size) twist();
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  /// Regenerate all state_size words; resets next_ to 0.
  void twist() noexcept;

  result_type state_[state_size];
  std::size_t next_ = state_size;
};

/// libstdc++'s std::generate_canonical<double, 53> of one 64-bit engine
/// word, computed without its u64 -> double conversion: the word is
/// double(x) * 2^-64, clamped to the largest double below 1. Splitting x
/// into 32-bit halves makes double(hi) * 2^32 exact, so the sum rounds
/// once, exactly as the direct conversion does — and both halves convert
/// with the signed instruction, with no branch on the sign bit.
[[nodiscard]] inline double canonical_unit(std::uint64_t x) noexcept {
  const double v =
      static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1.0p32 +
      static_cast<double>(static_cast<std::uint32_t>(x));
  const double u = v * 0x1.0p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

class rng {
 public:
  explicit rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [0, bound).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    DRAMDIG_EXPECTS(bound > 0);
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }

  /// Uniform integer in [lo, hi].
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) {
    DRAMDIG_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1): one engine word through canonical_unit(),
  /// the value std::uniform_real_distribution<double>(0, 1) returns on
  /// libstdc++ for the same word.
  [[nodiscard]] double uniform() noexcept { return canonical_unit(engine_()); }

  /// Bernoulli trial: one engine word, true when its canonical_unit() is
  /// below p — std::bernoulli_distribution's test on libstdc++.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Normal deviate.
  ///
  /// std::normal_distribution is stateful (Marsaglia polar: each refill
  /// produces two deviates and caches the spare). A hoisted member
  /// distribution would serve every second call from that spare and
  /// consume zero engine draws for it — changing the engine's draw
  /// sequence relative to this per-call form. Hot paths that need cheap
  /// gaussians use the counter-based noise_stream below.
  [[nodiscard]] double gaussian(double mean, double sigma) {
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Derive an independent child stream; lets subsystems own their rngs
  /// without coupling their draw order.
  [[nodiscard]] rng fork() { return rng(engine_()); }

  /// Access the underlying engine (for std::shuffle and distributions).
  [[nodiscard]] mt19937_64& engine() noexcept { return engine_; }

 private:
  mt19937_64 engine_;
};

// ---------------------------------------------------------------------------
// Counter-based noise streams.

/// One 256-bit output block of the counter engine.
struct counter_block {
  std::uint64_t v0 = 0, v1 = 0, v2 = 0, v3 = 0;
};

namespace detail {

/// 64x64 -> 128-bit multiply split into (hi, lo).
inline void mulhilo64(std::uint64_t a, std::uint64_t b, std::uint64_t& hi,
                      std::uint64_t& lo) noexcept {
#if defined(__SIZEOF_INT128__)
  const unsigned __int128 p =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  hi = static_cast<std::uint64_t>(p >> 64);
  lo = static_cast<std::uint64_t>(p);
#else
  const std::uint64_t a_lo = a & 0xffffffffu, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffu, b_hi = b >> 32;
  const std::uint64_t t = a_hi * b_lo + ((a_lo * b_lo) >> 32);
  const std::uint64_t u = a_lo * b_hi + (t & 0xffffffffu);
  hi = a_hi * b_hi + (t >> 32) + (u >> 32);
  lo = a * b;
#endif
}

/// splitmix64 step — used to expand one seed into independent key words.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace detail

/// philox4x64-10: the keyed counter->block function. Pure — the block is a
/// function of (key, counter) alone, so any sample indexed through it can
/// be evaluated on any thread, in any order, with identical results.
/// Multiplier/Weyl constants are the published Random123 values.
[[nodiscard]] inline counter_block philox4x64(std::uint64_t key0,
                                              std::uint64_t key1,
                                              std::uint64_t ctr0,
                                              std::uint64_t ctr1,
                                              std::uint64_t ctr2 = 0,
                                              std::uint64_t ctr3 = 0) noexcept {
  constexpr std::uint64_t kMul0 = 0xD2E7470EE14C6C93ull;
  constexpr std::uint64_t kMul1 = 0xCA5A826395121157ull;
  constexpr std::uint64_t kWeyl0 = 0x9E3779B97F4A7C15ull;
  constexpr std::uint64_t kWeyl1 = 0xBB67AE8584CAA73Bull;
  std::uint64_t c0 = ctr0, c1 = ctr1, c2 = ctr2, c3 = ctr3;
  std::uint64_t k0 = key0, k1 = key1;
  for (int round = 0; round < 10; ++round) {
    std::uint64_t hi0, lo0, hi1, lo1;
    detail::mulhilo64(kMul0, c0, hi0, lo0);
    detail::mulhilo64(kMul1, c2, hi1, lo1);
    c0 = hi1 ^ c1 ^ k0;
    c1 = lo1;
    c2 = hi0 ^ c3 ^ k1;
    c3 = lo0;
    k0 += kWeyl0;
    k1 += kWeyl1;
  }
  return {c0, c1, c2, c3};
}

/// Map a 64-bit word to a uniform double in [0, 1) (53-bit mantissa).
[[nodiscard]] constexpr double counter_unit(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Fixed-consumption standard-normal deviate from ONE uniform word, via
/// the inverse normal CDF (Acklam's rational approximation, |rel err| <
/// 1.2e-9 — far below the simulator's noise floor). No rejection loop, no
/// cached spare: deviate i never depends on deviate i-1, which is the
/// property that lets the measurement tail evaluate deviates by index.
[[nodiscard]] inline double counter_gaussian(std::uint64_t x) noexcept {
  // Half-ulp offset keeps u away from 0; the top lattice point would round
  // to exactly 1.0 (double spacing near 1 is 2^-53, so 1 - 2^-53 + 2^-54
  // ties-to-even upward), so it is clamped one ulp below — both tails stay
  // finite for every input word.
  const double u =
      std::min(counter_unit(x) + 0x1.0p-54, 1.0 - 0x1.0p-53);
  constexpr double a0 = -3.969683028665376e+01, a1 = 2.209460984245205e+02,
                   a2 = -2.759285104469687e+02, a3 = 1.383577518672690e+02,
                   a4 = -3.066479806614716e+01, a5 = 2.506628277459239e+00;
  constexpr double b0 = -5.447609879822406e+01, b1 = 1.615858368580409e+02,
                   b2 = -1.556989798598866e+02, b3 = 6.680131188771972e+01,
                   b4 = -1.328068155288572e+01;
  constexpr double c0 = -7.784894002430293e-03, c1 = -3.223964580411365e-01,
                   c2 = -2.400758277161838e+00, c3 = -2.549732539343734e+00,
                   c4 = 4.374664141464968e+00, c5 = 2.938163982698783e+00;
  constexpr double d0 = 7.784695709041462e-03, d1 = 3.224671290700398e-01,
                   d2 = 2.445134137142996e+00, d3 = 3.754408661907416e+00;
  constexpr double kLow = 0.02425;
  if (u < kLow) {
    const double q = std::sqrt(-2.0 * std::log(u));
    return (((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5) /
           ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0);
  }
  if (u > 1.0 - kLow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - u));
    return -(((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5) /
           ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0);
  }
  const double q = u - 0.5;
  const double r = q * q;
  return (((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5) * q /
         (((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0);
}

/// A keyed counter-based noise source. Every draw is addressed by a
/// (domain, index) pair: `domain` separates independent consumers sharing
/// one key, `index` is the consumer's own monotone counter (the memory
/// controller's measurement number). Copying a
/// noise_stream is free and never entangles streams — there is no state to
/// share.
struct noise_stream {
  std::uint64_t key0 = 0;
  std::uint64_t key1 = 0;

  /// Expand one seed into a full key via splitmix64 (the mt19937-seeding
  /// idiom; avoids correlated keys for adjacent seeds).
  [[nodiscard]] static noise_stream from_seed(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    const std::uint64_t k0 = detail::splitmix64(s);
    const std::uint64_t k1 = detail::splitmix64(s);
    return {k0, k1};
  }

  [[nodiscard]] counter_block block(std::uint64_t domain,
                                    std::uint64_t index) const noexcept {
    return philox4x64(key0, key1, index, domain);
  }

  /// Uniform double in [0, 1) at (domain, index).
  [[nodiscard]] double uniform(std::uint64_t domain,
                               std::uint64_t index) const noexcept {
    return counter_unit(block(domain, index).v0);
  }

  /// Bernoulli trial at (domain, index).
  [[nodiscard]] bool bernoulli(std::uint64_t domain, std::uint64_t index,
                               double p) const noexcept {
    return counter_unit(block(domain, index).v0) < p;
  }

  /// Normal deviate at (domain, index).
  [[nodiscard]] double gaussian(std::uint64_t domain, std::uint64_t index,
                                double mean, double sigma) const noexcept {
    return mean + sigma * counter_gaussian(block(domain, index).v0);
  }
};

}  // namespace dramdig
