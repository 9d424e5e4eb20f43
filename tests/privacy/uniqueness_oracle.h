#ifndef CHAMELEON_TESTS_PRIVACY_UNIQUENESS_ORACLE_H_
#define CHAMELEON_TESTS_PRIVACY_UNIQUENESS_ORACLE_H_

#include <cmath>
#include <cstddef>
#include <vector>

/// \file uniqueness_oracle.h
/// The O(V²) Definition 4 sum that ComputeUniqueness replaced, kept only
/// as a test oracle: every (v, u) pair goes through the Gaussian kernel,
/// and each commonness is summed with Neumaier compensation so the
/// oracle's own rounding stays far below the tolerance it checks.

namespace chameleon::privacy {

inline std::vector<double> OracleUniqueness(const std::vector<double>& values,
                                            double bandwidth) {
  const std::size_t n = values.size();
  std::vector<double> scores(n);
  for (std::size_t v = 0; v < n; ++v) {
    double sum = 0.0;
    double compensation = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      const double z = (values[v] - values[u]) / bandwidth;
      const double k = std::exp(-0.5 * z * z);
      const double t = sum + k;
      compensation += std::abs(sum) >= std::abs(k) ? (sum - t) + k
                                                   : (k - t) + sum;
      sum = t;
    }
    scores[v] = 1.0 / (sum + compensation);
  }
  return scores;
}

}  // namespace chameleon::privacy

#endif  // CHAMELEON_TESTS_PRIVACY_UNIQUENESS_ORACLE_H_
