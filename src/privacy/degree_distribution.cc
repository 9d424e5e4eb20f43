#include "chameleon/privacy/degree_distribution.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "chameleon/obs/obs.h"
#include "chameleon/util/parallel.h"

namespace chameleon::privacy {
namespace {

/// Vertices per scheduling block. Small enough that hub-heavy blocks
/// (O(d²) per vertex) still balance, large enough to amortize claiming.
constexpr std::size_t kBuildBlock = 64;

double ClampProbability(double p) { return std::clamp(p, 0.0, 1.0); }

/// Two doubles in one SSE2 register (GCC/Clang vector extension).
using Lanes = double __attribute__((vector_size(16)));

}  // namespace

DegreeDistribution DegreeDistribution::FromProbabilities(
    std::span<const double> probabilities) {
  DegreeDistribution dist;
  dist.pmf_.reserve(probabilities.size() + 1);
  for (const double p : probabilities) dist.AddEdge(p);
  return dist;
}

DegreeDistribution DegreeDistribution::ForVertex(
    const graph::UncertainGraph& graph, NodeId v) {
  DegreeDistribution dist;
  const auto neighbors = graph.Neighbors(v);
  dist.pmf_.reserve(neighbors.size() + 1);
  for (const graph::AdjEntry& entry : neighbors) {
    dist.AddEdge(graph.edge(entry.edge).p);
  }
  return dist;
}

void DegreeDistribution::AddEdge(double p) {
  p = ClampProbability(p);
  const double q = 1.0 - p;
  const std::size_t d = pmf_.size();
  pmf_.push_back(0.0);
  // In-place convolution with {1-p, p}, highest degree first so each
  // f[k] is read before it is overwritten: f'[k] = f[k]·q + f[k−1]·p.
  // Two entries per step: both loads happen before the store, and the
  // next step only reads slots below the ones just written. Each lane
  // rounds the same multiplies and add as the scalar step (SSE2 mulpd
  // and addpd; x86-64 baseline has no FMA to contract into), so the PMF
  // is bit-identical to the one-entry loop.
  double* f = pmf_.data();
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

double DegreeDistribution::Cdf(std::size_t k) const {
  if (k + 1 >= pmf_.size()) return 1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i <= k; ++i) sum += pmf_[i];
  return std::min(1.0, sum);
}

double DegreeDistribution::Mean() const {
  double mean = 0.0;
  for (std::size_t k = 1; k < pmf_.size(); ++k) {
    mean += static_cast<double>(k) * pmf_[k];
  }
  return mean;
}

double DegreeDistribution::EntropyBits() const {
  double entropy = 0.0;
  for (const double f : pmf_) {
    if (f > 0.0) entropy -= f * std::log2(f);
  }
  return std::max(0.0, entropy);
}

std::vector<DegreeDistribution> BuildDegreeDistributions(
    const graph::UncertainGraph& graph, int threads) {
  CHOBS_SPAN(span, "privacy/degree_distributions");
  const std::size_t n = graph.num_nodes();
  std::vector<DegreeDistribution> dists(n);
  ParallelForBlocks(n, kBuildBlock, threads,
                    [&](std::size_t /*block*/, std::size_t begin,
                        std::size_t end) {
                      for (std::size_t v = begin; v < end; ++v) {
                        dists[v] = DegreeDistribution::ForVertex(
                            graph, static_cast<NodeId>(v));
                      }
                    });
  span.AddCount("vertices", n);
  span.AddCount("edges", graph.num_edges());
  CHOBS_COUNT("privacy/degree_distributions/built", n);
  return dists;
}

}  // namespace chameleon::privacy
