#ifndef CHAMELEON_RELIABILITY_WORLD_SAMPLER_H_
#define CHAMELEON_RELIABILITY_WORLD_SAMPLER_H_

#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/graph/union_find.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"

/// \file world_sampler.h
/// Possible-world sampling under possible-world semantics: each edge is
/// included independently with its probability (paper Section II). This
/// is the innermost loop of every Monte Carlo estimate, so the sampler
/// keeps probabilities in a flat array and its instrumentation is
/// per-world, never per-edge.

namespace chameleon::rel {

class WorldSampler {
 public:
  explicit WorldSampler(const graph::UncertainGraph& graph);

  std::size_t num_edges() const { return probabilities_.size(); }

  /// Samples one world into `mask` (bit e = edge e exists). `mask` must
  /// be sized to num_edges(). Draws one UniformDouble per edge in edge
  /// order and sets bit e iff the draw is below p(e); every mask word is
  /// overwritten, so bits past num_edges() come out zero. Returns the
  /// number of edges present.
  std::size_t SampleMask(Rng& rng, BitVector& mask) const;

  const graph::UncertainGraph& graph() const { return *graph_; }

 private:
  const graph::UncertainGraph* graph_;
  std::vector<double> probabilities_;
};

/// Resets `dsu` and unites the endpoints of every edge present in `mask`
/// (one set-bit scan; the absent edges cost nothing).
void UniteWorld(const graph::UncertainGraph& graph, const BitVector& mask,
                graph::UnionFind& dsu);

}  // namespace chameleon::rel

#endif  // CHAMELEON_RELIABILITY_WORLD_SAMPLER_H_
