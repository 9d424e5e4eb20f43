#include "chameleon/privacy/degree_distribution.h"

#include <algorithm>
#include <cmath>

#include "chameleon/obs/obs.h"
#include "chameleon/util/parallel.h"
#include "poisson_binomial.h"

namespace chameleon::privacy {
namespace {

/// Vertices per scheduling block. Small enough that hub-heavy blocks
/// (O(d²) per vertex) still balance, large enough to amortize claiming.
constexpr std::size_t kBuildBlock = 64;

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
  pmf_.push_back(0.0);
  internal::ConvolveEdgeLanes<2>(pmf_.data(), pmf_.size() - 1, p);
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
