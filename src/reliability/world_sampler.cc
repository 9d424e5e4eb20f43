#include "chameleon/reliability/world_sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "chameleon/obs/obs.h"
#include "chameleon/util/logging.h"
#include "coin_lanes.h"

namespace chameleon::rel {

std::uint64_t CoinThreshold(double p) {
  // Rng::UniformDouble() is k·2⁻⁵³ for the integer k = x >> 11 < 2⁵³:
  // the conversion of k is exact (k has at most 53 bits) and so is the
  // scaling by a power of two. Scaling p by 2⁵³ is exact too: it moves
  // only the exponent, and p·2⁵³ ≤ 2⁵³ can neither overflow nor round (a
  // subnormal p keeps its significand). Hence, for every draw,
  //   k·2⁻⁵³ < p  ⟺  k < p·2⁵³  ⟺  k < ⌈p·2⁵³⌉,
  // the last step because k is an integer: k < y implies k < ⌈y⌉, and
  // k < ⌈y⌉ means k ≤ ⌈y⌉ − 1 < y. ⌈p·2⁵³⌉ ≤ 2⁵³ converts exactly.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

WorldSampler::WorldSampler(const graph::UncertainGraph& graph)
    : graph_(&graph) {
  thresholds_.reserve(graph.num_edges());
  for (const graph::UncertainEdge& e : graph.edges()) {
    thresholds_.push_back(CoinThreshold(e.p));
  }
}

std::size_t WorldSampler::SampleMask(Rng& rng, BitVector& mask) const {
  CH_CHECK(mask.size() == thresholds_.size());
  // Work on a local copy of the generator: the mask stores are uint64
  // writes that the compiler must otherwise assume may alias the
  // caller's RNG state, forcing a state reload per edge (~10% on this
  // hot loop).
  Rng local_rng = rng;
  const std::uint64_t* const thresholds = thresholds_.data();
  const std::size_t num = thresholds_.size();
  std::uint64_t* const words = mask.mutable_words().data();
  std::size_t present = 0;
  // Each word is assembled from 64 coin flips with no data-dependent
  // branch (p is typically mid-range, so an `if` per coin mispredicts
  // about half the time). Same draws in the same order as a per-edge
  // Set loop, and the tail bits past num stay zero.
  for (std::size_t base = 0; base < num; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, num - base);
    const std::uint64_t* const t = thresholds + base;
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < len; ++j) {
      word |= std::uint64_t{(local_rng() >> 11) < t[j]} << j;
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

namespace internal {

std::size_t SampleFourMasksSse2(
    const std::uint64_t* thresholds, std::size_t num_edges,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    const std::array<std::uint64_t*, WorldSampler::kLanes>& words) {
  return SampleFourMasksLanes<2>(thresholds, num_edges, seeds, words);
}

#if defined(__x86_64__) || defined(__i386__)
std::size_t SampleFourMasksAvx2(
    const std::uint64_t* thresholds, std::size_t num_edges,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    const std::array<std::uint64_t*, WorldSampler::kLanes>& words) {
  return SampleFourMasksLanes<4>(thresholds, num_edges, seeds, words);
}
#endif

std::size_t SampleFourMasksWith(
    FourMasksKernel kernel, const WorldSampler& sampler,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    std::array<BitVector, WorldSampler::kLanes>& masks) {
  const std::size_t num = sampler.num_edges();
  std::array<std::uint64_t*, WorldSampler::kLanes> words;
  for (std::size_t l = 0; l < WorldSampler::kLanes; ++l) {
    CH_CHECK(masks[l].size() == num);
    words[l] = masks[l].mutable_words().data();
  }
  const std::size_t present =
      kernel(sampler.thresholds().data(), num, seeds, words);
  CHOBS_COUNT("reliability/sampler/worlds", WorldSampler::kLanes);
  CHOBS_COUNT("reliability/sampler/edges_present", present);
  return present;
}

}  // namespace internal

namespace {

internal::FourMasksKernel SelectFourMasksKernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return internal::SampleFourMasksAvx2;
#endif
  return internal::SampleFourMasksSse2;
}

}  // namespace

std::size_t WorldSampler::SampleFourMasks(
    const std::array<std::uint64_t, kLanes>& seeds,
    std::array<BitVector, kLanes>& masks) const {
  static const internal::FourMasksKernel kernel = SelectFourMasksKernel();
  return internal::SampleFourMasksWith(kernel, *this, seeds, masks);
}

bool UniteWorld(const graph::UncertainGraph& graph, const BitVector& mask,
                graph::UnionFind& dsu) {
  dsu.Reset();
  if (dsu.num_components() <= 1) return true;
  const auto& edges = graph.edges();
  const std::vector<std::uint64_t>& words = mask.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const auto& edge =
          edges[(w << 6) + static_cast<std::size_t>(std::countr_zero(bits))];
      if (dsu.Union(edge.u, edge.v) && dsu.num_components() == 1) return true;
    }
  }
  return false;
}

}  // namespace chameleon::rel
