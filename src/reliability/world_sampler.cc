#include "chameleon/reliability/world_sampler.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "chameleon/obs/obs.h"
#include "chameleon/util/logging.h"

namespace chameleon::rel {

WorldSampler::WorldSampler(const graph::UncertainGraph& graph)
    : graph_(&graph) {
  probabilities_.reserve(graph.num_edges());
  for (const graph::UncertainEdge& e : graph.edges()) {
    probabilities_.push_back(e.p);
  }
}

std::size_t WorldSampler::SampleMask(Rng& rng, BitVector& mask) const {
  CH_CHECK(mask.size() == probabilities_.size());
  // Work on a local copy of the generator: the mask stores are uint64
  // writes that the compiler must otherwise assume may alias the
  // caller's RNG state, forcing a state reload per edge (~10% on this
  // hot loop).
  Rng local_rng = rng;
  const double* const probabilities = probabilities_.data();
  const std::size_t num = probabilities_.size();
  std::uint64_t* const words = mask.mutable_words().data();
  std::size_t present = 0;
  // Each word is assembled from 64 coin flips with no data-dependent
  // branch (p is typically mid-range, so an `if` per coin mispredicts
  // about half the time). Same draws in the same order as a per-edge
  // Set loop, and the tail bits past num stay zero.
  for (std::size_t base = 0; base < num; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, num - base);
    const double* const p = probabilities + base;
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < len; ++j) {
      word |= std::uint64_t{local_rng.UniformDouble() < p[j]} << j;
    }
    words[base >> 6] = word;
    present += static_cast<std::size_t>(std::popcount(word));
  }
  rng = local_rng;
  // Per-world granularity: two relaxed counter bumps per world keeps the
  // disabled-path overhead budget (<2%) honest even on tiny graphs.
  CHOBS_COUNT("reliability/sampler/worlds", 1);
  CHOBS_COUNT("reliability/sampler/edges_present", present);
  return present;
}

void UniteWorld(const graph::UncertainGraph& graph, const BitVector& mask,
                graph::UnionFind& dsu) {
  dsu.Reset();
  const auto& edges = graph.edges();
  mask.ForEachSet([&](std::size_t e) { dsu.Union(edges[e].u, edges[e].v); });
}

}  // namespace chameleon::rel
