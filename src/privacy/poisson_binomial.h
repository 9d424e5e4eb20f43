#ifndef CHAMELEON_SRC_PRIVACY_POISSON_BINOMIAL_H_
#define CHAMELEON_SRC_PRIVACY_POISSON_BINOMIAL_H_

#include <algorithm>
#include <cstddef>
#include <cstring>

/// \file poisson_binomial.h
/// The one Poisson-binomial recurrence every degree PMF is built with,
/// shared by DegreeDistribution (degree_distribution.cc) and the
/// verifier that builds PMFs in scratch (obfuscation.cc), so both give
/// the same doubles bit for bit.
///
/// The recurrence is one template over the lane count. Two lanes is an
/// SSE2 register, the x86-64 baseline; four lanes is an AVX2 register,
/// used through BuildPmf only on CPUs that have AVX2. Every lane rounds
/// the same multiply, multiply and add as the one-entry loop, and none
/// can be contracted into an FMA (the library builds in ISO C++ mode,
/// where GCC's -ffp-contract defaults to off, and the AVX2 target adds
/// no FMA), so every lane count gives the scalar recurrence's PMF bit
/// for bit. Vectors never cross a function
/// boundary by value, so no 32-byte argument changes the ABI of code
/// built without AVX.
///
/// Certain edges shift the PMF exactly. A p = 1 step computes
/// f'[k] = f[k]·0 + f[k−1]·1 = f[k−1] and f'[0] = +0.0, and a p = 0 step
/// f'[k] = f[k]·1 + f[k−1]·0 = f[k]: every entry is ≥ 0 and finite, so
/// each product is exact, each added term is +0.0, and x + (+0.0) = x.
/// A shifted PMF then goes through any later step entry for entry as the
/// unshifted one does (its lowest new entry is f[0]·q + (+0.0)·p =
/// f[0]·q), so the shift commutes with it. Hence the PMF of d edges, c of
/// them with p = 1 and u with 0 < p < 1, is the PMF of those u edges
/// alone, in the same order, moved up by c, with exact zeros below c and
/// above c + u: the verifier builds that one, in O(u²) instead of O(d²).

namespace chameleon::privacy::internal {

/// `kLanes` doubles in one register (GCC/Clang vector extension).
template <int kLanes>
struct LaneVector;
template <>
struct LaneVector<2> {
  using Type = double __attribute__((vector_size(16)));
};
template <>
struct LaneVector<4> {
  using Type = double __attribute__((vector_size(32)));
};

/// Incorporates one more incident edge of probability `p` (clamped to
/// [0, 1]) into the PMF f[0, d), in place, `kLanes` entries per step: on
/// return f[0, d] holds the PMF with d edges. `f` must have room for
/// d + 1 entries.
template <int kLanes>
[[gnu::always_inline]] inline void ConvolveEdgeLanes(double* f, std::size_t d,
                                                     double p) {
  using Lanes = typename LaneVector<kLanes>::Type;
  p = std::clamp(p, 0.0, 1.0);
  const double q = 1.0 - p;
  f[d] = 0.0;
  // In-place convolution with {1-p, p}, highest degree first so each
  // f[k] is read before it is overwritten: f'[k] = f[k]·q + f[k−1]·p.
  // kLanes entries per step: both loads happen before the store, and the
  // next step only reads slots below the ones just written.
  Lanes qq;
  Lanes pp;
  for (int lane = 0; lane < kLanes; ++lane) {
    qq[lane] = q;
    pp[lane] = p;
  }
  std::size_t k = d;
  for (; k >= static_cast<std::size_t>(kLanes); k -= kLanes) {
    Lanes hi;
    Lanes lo;
    std::memcpy(&hi, f + k + 1 - kLanes, sizeof(Lanes));  // f[k−L+1 .. k]
    std::memcpy(&lo, f + k - kLanes, sizeof(Lanes));      // f[k−L .. k−1]
    const Lanes out = hi * qq + lo * pp;
    std::memcpy(f + k + 1 - kLanes, &out, sizeof(Lanes));
  }
  for (; k >= 1; --k) f[k] = f[k] * q + f[k - 1] * p;
  f[0] *= q;
}

/// The PMF of `d` independent edges with probabilities `probs[0, d)`,
/// built in f[0, d] (room for d + 1 entries), `kLanes` entries per step.
template <int kLanes>
[[gnu::always_inline]] inline void BuildPmfLanes(double* f,
                                                 const double* probs,
                                                 std::size_t d) {
  f[0] = 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    ConvolveEdgeLanes<kLanes>(f, i + 1, probs[i]);
  }
}

#if defined(__x86_64__) || defined(__i386__)
/// BuildPmfLanes<4> compiled for AVX2; call it only where the CPU has
/// AVX2 (BuildPmf checks).
[[gnu::target("avx2")]] void BuildPmfAvx2(double* f, const double* probs,
                                          std::size_t d);
#endif

/// BuildPmfLanes on the widest lane count this CPU runs: four where it
/// has AVX2, chosen once per process, two otherwise. The PMF is the same
/// bit for bit either way.
void BuildPmf(double* f, const double* probs, std::size_t d);

}  // namespace chameleon::privacy::internal

#endif  // CHAMELEON_SRC_PRIVACY_POISSON_BINOMIAL_H_
