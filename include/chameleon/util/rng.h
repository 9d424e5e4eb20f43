#ifndef CHAMELEON_UTIL_RNG_H_
#define CHAMELEON_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <limits>

/// \file rng.h
/// Deterministic, seedable random number generation. The engine is
/// xoshiro256** (Blackman & Vigna) seeded through splitmix64, which gives
/// full-period 64-bit streams from any seed including 0. All stochastic
/// code in the library draws from an explicitly passed `Rng&` so every
/// experiment is reproducible from a single master seed.

namespace chameleon {

/// splitmix64 step: mixes `state` and advances it. Used for seeding and
/// for cheap stateless hashing.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator, so it can be
/// plugged into <random> distributions, but the members below avoid the
/// libstdc++ distribution objects on hot paths.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2018u) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double UniformDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Uniform integer in [0, bound); bound must be positive. Uses Lemire's
  /// multiply-shift rejection method.
  std::uint64_t UniformInt(std::uint64_t bound);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Standard normal deviate (Box-Muller with one cached value).
  double Gaussian();

  /// Truncated normal deviate: X ~ N(mean, sigma²) conditioned on
  /// lo <= X <= hi. Exact rejection sampling — plain normal rejection
  /// when the window covers the mode, a uniform proposal bounded by the
  /// window's peak density for narrow windows, and Robert's (1995)
  /// shifted-exponential proposal for one-sided tail windows, so the
  /// expected draw count stays O(1) in every regime. Degenerate inputs
  /// (sigma <= 0 or lo == hi) return mean clamped to [lo, hi]. Requires
  /// lo <= hi.
  double TruncatedGaussian(double mean, double sigma, double lo, double hi);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_RNG_H_
