#ifndef CHAMELEON_RELIABILITY_WORLD_SAMPLER_H_
#define CHAMELEON_RELIABILITY_WORLD_SAMPLER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/graph/union_find.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"

/// \file world_sampler.h
/// Possible-world sampling under possible-world semantics: each edge is
/// included independently with its probability (paper Section II). This
/// is the innermost loop of every Monte Carlo estimate, so the sampler
/// keeps one integer coin threshold per edge in a flat array and its
/// instrumentation is per-world, never per-edge.
///
/// Threshold contract. Edge e's coin is heads (the edge is present) iff
/// `Rng::UniformDouble() < p(e)`. UniformDouble is k·2⁻⁵³ with the
/// integer k = x >> 11 of the next 64-bit draw x, so the sampler stores
/// t(e) = CoinThreshold(p(e)) = ⌈p(e)·2⁵³⌉ and tests k < t(e) instead:
/// the same bit for every draw (the proof is at CoinThreshold in
/// world_sampler.cc). Probabilities 0 and 1 give t = 0 (never present)
/// and t = 2⁵³ (always present).

namespace chameleon::rel {

/// ⌈p·2⁵³⌉ for p in [0, 1]: the integer threshold t with
/// `(x >> 11) < t` ⟺ `k·2⁻⁵³ < p` for every 64-bit draw x, k = x >> 11.
std::uint64_t CoinThreshold(double p);

class WorldSampler {
 public:
  /// Four worlds per SampleFourMasks call.
  static constexpr std::size_t kLanes = 4;

  explicit WorldSampler(const graph::UncertainGraph& graph);

  std::size_t num_edges() const { return thresholds_.size(); }

  /// Samples one world into `mask` (bit e = edge e exists). `mask` must
  /// be sized to num_edges(). Draws one 64-bit value per edge in edge
  /// order and sets bit e iff the draw's top 53 bits are below t(e) —
  /// exactly when `rng.UniformDouble() < p(e)` would hold; every mask
  /// word is overwritten, so bits past num_edges() come out zero.
  /// Returns the number of edges present.
  std::size_t SampleMask(Rng& rng, BitVector& mask) const;

  /// Samples four worlds at once: lane l runs the xoshiro256** stream of
  /// `Rng(seeds[l])` and writes `masks[l]` exactly as
  /// `Rng rng(seeds[l]); SampleMask(rng, masks[l])` would, word for word.
  /// The four streams advance in uint64 vector lanes: one 256-bit AVX2
  /// register on CPUs that have AVX2, two 128-bit SSE2 registers on every
  /// other CPU, the width chosen once per process from the CPU alone.
  /// Both widths write the same masks. Each mask must be sized to
  /// num_edges(). Returns the number of edges present summed over the
  /// four worlds; the sampler counters advance by four worlds and that
  /// sum, as four SampleMask calls would.
  std::size_t SampleFourMasks(const std::array<std::uint64_t, kLanes>& seeds,
                              std::array<BitVector, kLanes>& masks) const;

  const graph::UncertainGraph& graph() const { return *graph_; }
  /// t(e) = CoinThreshold(p(e)), aligned with graph().edges().
  const std::vector<std::uint64_t>& thresholds() const { return thresholds_; }

 private:
  const graph::UncertainGraph* graph_;
  std::vector<std::uint64_t> thresholds_;
};

/// Resets `dsu` and unites the endpoints of the edges present in `mask`
/// in edge order (one set-bit scan; the absent edges cost nothing),
/// stopping once one component is left: the edges after that cannot
/// change the partition. Returns true iff the world connects every
/// vertex.
bool UniteWorld(const graph::UncertainGraph& graph, const BitVector& mask,
                graph::UnionFind& dsu);

}  // namespace chameleon::rel

#endif  // CHAMELEON_RELIABILITY_WORLD_SAMPLER_H_
