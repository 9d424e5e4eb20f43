#ifndef CHAMELEON_PRIVACY_DEGREE_DISTRIBUTION_H_
#define CHAMELEON_PRIVACY_DEGREE_DISTRIBUTION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/common.h"

/// \file degree_distribution.h
/// Exact per-vertex degree distributions of an uncertain graph. The
/// degree of `v` in a sampled possible world is a Poisson-binomial
/// random variable over the independent incident edge probabilities;
/// its PMF is the distribution the (k,ε)-obfuscation adversary reasons
/// with (X_u in Boldi et al.) and the object Chameleon's max-entropy
/// perturbation optimizes.
///
/// The PMF is computed by the stable direct-convolution recurrence
///   f'[k] = f[k]·(1−p) + f[k−1]·p
/// applied once per incident edge — O(d²) for a degree-d vertex, all
/// terms non-negative so no catastrophic cancellation. The loop runs two
/// entries per step with the same per-entry rounding as the one-entry
/// loop, so every PMF is bit-identical to it. There is no inverse step:
/// a deconvolution downdate lands within ~1e-15 of a rebuild but not on
/// it bitwise, and a vertex whose posterior entropy sits on the log₂k
/// line could flip, so the GenObf search rebuilds each attempt's PMFs
/// from scratch.

namespace chameleon::privacy {

/// PMF of the Poisson-binomial degree of one vertex. Value semantics:
/// copy freely, grow via AddEdge.
class DegreeDistribution {
 public:
  /// Zero incident edges: degree 0 with probability 1.
  DegreeDistribution() : pmf_{1.0} {}

  /// Builds by direct convolution over `probabilities` (each in [0,1]).
  static DegreeDistribution FromProbabilities(
      std::span<const double> probabilities);

  /// Distribution of `v`'s degree in `graph`.
  static DegreeDistribution ForVertex(const graph::UncertainGraph& graph,
                                      NodeId v);

  /// Incorporates one more incident edge with probability `p`. O(d).
  void AddEdge(double p);

  /// Number of incorporated edges (the maximum possible degree).
  std::size_t num_edges() const { return pmf_.size() - 1; }

  /// P[deg = k]; 0 outside [0, num_edges()].
  double Pmf(std::size_t k) const {
    return k < pmf_.size() ? pmf_[k] : 0.0;
  }

  /// P[deg <= k]; 1 beyond num_edges().
  double Cdf(std::size_t k) const;

  /// E[deg] = sum of incorporated probabilities (computed from the PMF,
  /// so it stays exact under Add/Remove round trips).
  double Mean() const;

  /// Shannon entropy of the degree distribution in bits.
  double EntropyBits() const;

  /// The full PMF, index = degree value.
  const std::vector<double>& pmf() const { return pmf_; }

 private:
  std::vector<double> pmf_;
};

/// All-vertex degree distributions, sharded across `threads` workers
/// (< 1 = hardware concurrency). Deterministic: per-vertex results do
/// not depend on the worker count. Emits a `privacy/degree_distributions`
/// trace span with vertex/edge counters.
std::vector<DegreeDistribution> BuildDegreeDistributions(
    const graph::UncertainGraph& graph, int threads = 0);

}  // namespace chameleon::privacy

#endif  // CHAMELEON_PRIVACY_DEGREE_DISTRIBUTION_H_
