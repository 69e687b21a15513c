// Deterministic pseudo-random number generation.
//
// The case study depends on run-to-run reproducibility ("the seed is set to
// the same so that the workload for each experiment is identical"), so all
// randomness in gridlb flows through this engine rather than std::rand or
// random_device.  The generator is xoshiro256**, seeded via splitmix64; it
// is small, fast, and has well-understood statistical quality.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace gridlb {

/// xoshiro256** engine with convenience distributions.
///
/// Not thread-safe; each simulation component owns its own stream (use
/// `split()` to derive independent child streams deterministically).
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // The draws the GA makes per bit, per child and per parent are defined
  // here so they inline into the operator loops.

  /// Next raw 64-bit output.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) with rejection sampling (no modulo bias).
  /// `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    GRIDLB_REQUIRE(bound > 0, "next_below bound must be positive");
    // Lemire-style rejection: draw until the value falls in the largest
    // multiple of `bound` that fits in 64 bits.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 top bits -> [0, 1) with full double precision.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli draw with probability `p` of true.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives a child stream whose sequence is independent of later draws
  /// from this stream (both are fully determined by the original seed).
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace gridlb
