#include "util/rng.h"

namespace dramdig {

namespace {

constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;

/// One step of the recurrence, branch-free: `0 - (y & 1)` is all ones
/// exactly when the low bit selects the twist matrix.
constexpr std::uint64_t twisted(std::uint64_t mid, std::uint64_t lo,
                                std::uint64_t hi) noexcept {
  const std::uint64_t y = (lo & kUpper) | (hi & kLower);
  return mid ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

}  // namespace

mt19937_64::mt19937_64(result_type seed) noexcept {
  state_[0] = seed;
  for (std::size_t i = 1; i < state_size; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = (x ^ (x >> 62)) * 6364136223846793005ull + i;
  }
}

void mt19937_64::twist() noexcept {
  constexpr std::size_t n = state_size;
  // Three spans, as in the reference implementation: the first reads
  // words not yet regenerated, the second wraps to words the first
  // regenerated, the last pairs the final word with word 0. No step reads
  // a word an earlier step of its span wrote, so both loops vectorize.
  for (std::size_t k = 0; k < n - kShift; ++k) {
    state_[k] = twisted(state_[k + kShift], state_[k], state_[k + 1]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    state_[k] = twisted(state_[k + kShift - n], state_[k], state_[k + 1]);
  }
  state_[n - 1] = twisted(state_[kShift - 1], state_[n - 1], state_[0]);
  next_ = 0;
}

}  // namespace dramdig
