// Measures the cost of the dormant observability layer on the sampler
// hot loop (ISSUE budget: < 2% with the sink unset). Three variants:
//   raw        — hand-rolled copy of SampleMask's word build, no library
//                calls in the timed loop (the integer coin thresholds
//                come from rel::CoinThreshold beforehand)
//   sampler    — WorldSampler::SampleMask with obs dormant (default)
//   sampler_on — the same with the runtime switch forced on
// Compare raw vs sampler for the compiled-in-but-disabled overhead, and
// sampler vs sampler_on for the cost of live counting.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/rng.h"

namespace {

using chameleon::BitVector;
using chameleon::NodeId;
using chameleon::Rng;
using chameleon::graph::UncertainGraph;
using chameleon::graph::UncertainGraphBuilder;

UncertainGraph MakeRing(NodeId n) {
  UncertainGraphBuilder builder(n);
  Rng rng(7);
  for (NodeId u = 0; u < n; ++u) {
    CH_CHECK(builder.AddEdge(u, (u + 1) % n, rng.UniformDouble()).ok());
  }
  auto g = std::move(builder).Build();
  CH_CHECK(g.ok());
  return *std::move(g);
}

void BM_RawBernoulliLoop(benchmark::State& state) {
  const UncertainGraph g = MakeRing(static_cast<NodeId>(state.range(0)));
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(g.num_edges());
  for (const auto& e : g.edges()) {
    thresholds.push_back(chameleon::rel::CoinThreshold(e.p));
  }
  Rng rng(11);
  BitVector mask(g.num_edges());
  const std::size_t num = thresholds.size();
  for (auto _ : state) {
    // The same branch-free word build as SampleMask, integer thresholds
    // included, so raw vs dormant differs only by the dormant counters.
    Rng local_rng = rng;
    std::uint64_t* const words = mask.mutable_words().data();
    std::size_t present = 0;
    for (std::size_t base = 0; base < num; base += 64) {
      const std::size_t len = std::min<std::size_t>(64, num - base);
      std::uint64_t word = 0;
      for (std::size_t j = 0; j < len; ++j) {
        word |= std::uint64_t{(local_rng() >> 11) < thresholds[base + j]}
                << j;
      }
      words[base >> 6] = word;
      present += static_cast<std::size_t>(std::popcount(word));
    }
    rng = local_rng;
    benchmark::DoNotOptimize(present);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_RawBernoulliLoop)->Arg(1024)->Arg(65536);

void BM_SamplerObsDormant(benchmark::State& state) {
  const UncertainGraph g = MakeRing(static_cast<NodeId>(state.range(0)));
  const chameleon::rel::WorldSampler sampler(g);
  Rng rng(11);
  BitVector mask(g.num_edges());
  CH_CHECK(!chameleon::obs::Enabled());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleMask(rng, mask));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SamplerObsDormant)->Arg(1024)->Arg(65536);

void BM_SamplerObsEnabled(benchmark::State& state) {
  const UncertainGraph g = MakeRing(static_cast<NodeId>(state.range(0)));
  const chameleon::rel::WorldSampler sampler(g);
  Rng rng(11);
  BitVector mask(g.num_edges());
  chameleon::obs::SetEnabledForTesting(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleMask(rng, mask));
  }
  chameleon::obs::SetEnabledForTesting(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SamplerObsEnabled)->Arg(1024)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
