#ifndef CHAMELEON_SRC_RELIABILITY_COIN_LANES_H_
#define CHAMELEON_SRC_RELIABILITY_COIN_LANES_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"

/// \file coin_lanes.h
/// The four-world coin kernel behind WorldSampler::SampleFourMasks, one
/// template over the number of uint64 lanes in a register. Two lanes is
/// an SSE2 register, the x86-64 baseline, so the four streams run as two
/// register groups; four lanes is one AVX2 register, used only on CPUs
/// that have AVX2. Every lane steps its own xoshiro256** stream exactly
/// as Rng::operator() does and tests the same integer coin, so both
/// widths write the same masks word for word. Vectors never cross a
/// function boundary by value, so no 32-byte argument changes the ABI of
/// code built without AVX (GCC's -Wpsabi note).

namespace chameleon::rel::internal {

/// `kWidth` uint64 lanes in one register (GCC/Clang vector extension).
template <int kWidth>
struct LaneVector;
template <>
struct LaneVector<2> {
  using Type = std::uint64_t __attribute__((vector_size(16)));
};
template <>
struct LaneVector<4> {
  using Type = std::uint64_t __attribute__((vector_size(32)));
};

/// One xoshiro256** step per lane, as Rng::operator() takes it, and the
/// coin of threshold t into bit j of `word`. The multiplications by 5
/// and 9 are shift-adds (neither SSE2 nor AVX2 has a 64-bit lane
/// multiply). k = draw >> 11 and t both lie in [0, 2⁵³], so k − t wraps
/// to a set sign bit exactly when k < t: the coin, branch-free and
/// without a 64-bit lane compare (SSE2 has none).
template <typename Lanes>
[[gnu::always_inline]] inline void CoinStep(Lanes& s0, Lanes& s1, Lanes& s2,
                                            Lanes& s3, std::uint64_t t,
                                            std::size_t j, Lanes& word) {
  const Lanes times5 = s1 + (s1 << 2);
  const Lanes rotated = (times5 << 7) | (times5 >> 57);
  const Lanes draw = rotated + (rotated << 3);
  const Lanes shifted = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= shifted;
  s3 = (s3 << 45) | (s3 >> 19);
  word |= (((draw >> 11) - t) >> 63) << j;
}

/// The xoshiro256** states of kWidth worlds, one per lane, held in four
/// registers.
template <int kWidth>
struct StreamGroup {
  using Lanes = typename LaneVector<kWidth>::Type;
  Lanes s0;
  Lanes s1;
  Lanes s2;
  Lanes s3;
};

/// Samples world l into words[l][0, ⌈num_edges/64⌉) for l < 4, lane l
/// running the stream of Rng(seeds[l]), `kWidth` lanes per register, and
/// returns the number of edges present over the four worlds. Bits past
/// num_edges come out zero.
template <int kWidth>
[[gnu::always_inline]] inline std::size_t SampleFourMasksLanes(
    const std::uint64_t* thresholds, std::size_t num_edges,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    const std::array<std::uint64_t*, WorldSampler::kLanes>& words) {
  using Lanes = typename LaneVector<kWidth>::Type;
  constexpr std::size_t kGroups = WorldSampler::kLanes / kWidth;
  // Lane l of group g is world g·kWidth + l, starting in the state of
  // Rng(seeds[g·kWidth + l]): four splitmix64 outputs.
  std::array<StreamGroup<kWidth>, kGroups> group;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t l = 0; l < kWidth; ++l) {
      std::uint64_t sm = seeds[g * kWidth + l];
      group[g].s0[l] = SplitMix64(sm);
      group[g].s1[l] = SplitMix64(sm);
      group[g].s2[l] = SplitMix64(sm);
      group[g].s3[l] = SplitMix64(sm);
    }
  }
  std::size_t present = 0;
  for (std::size_t base = 0; base < num_edges; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, num_edges - base);
    const std::uint64_t* const t = thresholds + base;
    std::array<Lanes, kGroups> word = {};
    for (std::size_t j = 0; j < len; ++j) {
      // Unrolled, so every group's state stays in registers; -O2 alone
      // keeps the two-group loop rolled and the state on the stack.
#pragma GCC unroll 2
      for (std::size_t g = 0; g < kGroups; ++g) {
        CoinStep(group[g].s0, group[g].s1, group[g].s2, group[g].s3, t[j], j,
                 word[g]);
      }
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (std::size_t l = 0; l < kWidth; ++l) {
        words[g * kWidth + l][base >> 6] = word[g][l];
        present += static_cast<std::size_t>(std::popcount(word[g][l]));
      }
    }
  }
  return present;
}

/// A compiled SampleFourMasksLanes instantiation.
using FourMasksKernel = std::size_t (*)(
    const std::uint64_t* thresholds, std::size_t num_edges,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    const std::array<std::uint64_t*, WorldSampler::kLanes>& words);

/// SampleFourMasksLanes<2>: two register groups of two lanes.
std::size_t SampleFourMasksSse2(
    const std::uint64_t* thresholds, std::size_t num_edges,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    const std::array<std::uint64_t*, WorldSampler::kLanes>& words);

#if defined(__x86_64__) || defined(__i386__)
/// SampleFourMasksLanes<4> compiled for AVX2; call it only where the CPU
/// has AVX2 (WorldSampler::SampleFourMasks checks).
[[gnu::target("avx2")]] std::size_t SampleFourMasksAvx2(
    const std::uint64_t* thresholds, std::size_t num_edges,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    const std::array<std::uint64_t*, WorldSampler::kLanes>& words);
#endif

/// WorldSampler::SampleFourMasks on `kernel`: checks the mask sizes,
/// samples, and advances the sampler counters by four worlds and the
/// present count.
std::size_t SampleFourMasksWith(
    FourMasksKernel kernel, const WorldSampler& sampler,
    const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
    std::array<BitVector, WorldSampler::kLanes>& masks);

}  // namespace chameleon::rel::internal

#endif  // CHAMELEON_SRC_RELIABILITY_COIN_LANES_H_
