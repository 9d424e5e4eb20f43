#include "chameleon/reliability/world_sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "chameleon/obs/obs.h"
#include "chameleon/util/logging.h"

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

std::size_t WorldSampler::SampleFourMasks(
    const std::array<std::uint64_t, kLanes>& seeds,
    std::array<BitVector, kLanes>& masks) const {
  // Two 128-bit halves of two uint64 lanes each, lanes {0, 1} and {2, 3}:
  // the baseline ISA's SSE2 width, so all eight state vectors stay in
  // registers (one 256-bit generic vector makes GCC spill the state to
  // the stack every step). No vector is passed or returned by value, so
  // no call's ABI depends on the ISA (GCC's -Wpsabi note).
  using U64x2 = std::uint64_t __attribute__((vector_size(16)));
  const std::size_t num = thresholds_.size();
  std::array<std::uint64_t*, kLanes> words;
  for (std::size_t l = 0; l < kLanes; ++l) {
    CH_CHECK(masks[l].size() == num);
    words[l] = masks[l].mutable_words().data();
  }
  // Lane l starts in Rng(seeds[l])'s state: four splitmix64 outputs.
  std::array<std::array<std::uint64_t, 4>, kLanes> state;
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::uint64_t sm = seeds[l];
    for (std::uint64_t& word : state[l]) word = SplitMix64(sm);
  }
  U64x2 a0 = {state[0][0], state[1][0]};
  U64x2 a1 = {state[0][1], state[1][1]};
  U64x2 a2 = {state[0][2], state[1][2]};
  U64x2 a3 = {state[0][3], state[1][3]};
  U64x2 b0 = {state[2][0], state[3][0]};
  U64x2 b1 = {state[2][1], state[3][1]};
  U64x2 b2 = {state[2][2], state[3][2]};
  U64x2 b3 = {state[2][3], state[3][3]};
  // One xoshiro256** step per lane, as Rng::operator() takes it, and the
  // coin of threshold t into bit j of `word`. The multiplications by 5
  // and 9 are shift-adds (SSE2 has no 64-bit lane multiply). k = draw >>
  // 11 and t both lie in [0, 2⁵³], so k − t wraps to a set sign bit
  // exactly when k < t: the coin, branch-free and without a 64-bit lane
  // compare (SSE2 has none). Vectors pass by reference only.
  const auto coin = [](U64x2& s0, U64x2& s1, U64x2& s2, U64x2& s3,
                       std::uint64_t t, std::size_t j, U64x2& word) {
    const U64x2 times5 = s1 + (s1 << 2);
    const U64x2 rotated = (times5 << 7) | (times5 >> 57);
    const U64x2 draw = rotated + (rotated << 3);
    const U64x2 shifted = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= shifted;
    s3 = (s3 << 45) | (s3 >> 19);
    word |= (((draw >> 11) - t) >> 63) << j;
  };
  const std::uint64_t* const thresholds = thresholds_.data();
  std::size_t present = 0;
  for (std::size_t base = 0; base < num; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, num - base);
    const std::uint64_t* const t = thresholds + base;
    U64x2 word_a = {0, 0};
    U64x2 word_b = {0, 0};
    for (std::size_t j = 0; j < len; ++j) {
      coin(a0, a1, a2, a3, t[j], j, word_a);
      coin(b0, b1, b2, b3, t[j], j, word_b);
    }
    const std::array<std::uint64_t, kLanes> lane_words = {
        word_a[0], word_a[1], word_b[0], word_b[1]};
    for (std::size_t l = 0; l < kLanes; ++l) {
      words[l][base >> 6] = lane_words[l];
      present += static_cast<std::size_t>(std::popcount(lane_words[l]));
    }
  }
  CHOBS_COUNT("reliability/sampler/worlds", kLanes);
  CHOBS_COUNT("reliability/sampler/edges_present", present);
  return present;
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
