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

namespace chameleon::privacy::internal {

/// Two doubles in one SSE2 register (GCC/Clang vector extension).
using Lanes = double __attribute__((vector_size(16)));

/// Incorporates one more incident edge of probability `p` (clamped to
/// [0, 1]) into the PMF f[0, d), in place: on return f[0, d] holds the
/// PMF with d edges. `f` must have room for d + 1 entries.
inline void ConvolveEdge(double* f, std::size_t d, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const double q = 1.0 - p;
  f[d] = 0.0;
  // In-place convolution with {1-p, p}, highest degree first so each
  // f[k] is read before it is overwritten: f'[k] = f[k]·q + f[k−1]·p.
  // Two entries per step: both loads happen before the store, and the
  // next step only reads slots below the ones just written. Each lane
  // rounds the same multiplies and add as the scalar step (SSE2 mulpd
  // and addpd; x86-64 baseline has no FMA to contract into), so the PMF
  // is bit-identical to the one-entry loop.
  const Lanes qq = {q, q};
  const Lanes pp = {p, p};
  std::size_t k = d;
  for (; k >= 2; k -= 2) {
    Lanes hi;
    Lanes lo;
    std::memcpy(&hi, f + k - 1, sizeof(Lanes));  // f[k−1], f[k]
    std::memcpy(&lo, f + k - 2, sizeof(Lanes));  // f[k−2], f[k−1]
    const Lanes out = hi * qq + lo * pp;
    std::memcpy(f + k - 1, &out, sizeof(Lanes));
  }
  if (k == 1) f[1] = f[1] * q + f[0] * p;
  f[0] *= q;
}

}  // namespace chameleon::privacy::internal

#endif  // CHAMELEON_SRC_PRIVACY_POISSON_BINOMIAL_H_
