#include "chameleon/reliability/reliability.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/union_find.h"
#include "chameleon/obs/metrics.h"
#include "chameleon/obs/obs.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "reliability/coin_lanes.h"

namespace chameleon::rel {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

MonteCarloOptions QuietOptions(std::size_t worlds) {
  MonteCarloOptions options;
  options.worlds = worlds;
  options.heartbeat = false;
  return options;
}

UncertainGraph MakePath3() {
  // 0 -(0.8)- 1 -(0.5)- 2; exact R(0,2) = 0.4.
  UncertainGraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1, 0.8).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 0.5).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

UncertainGraph MakeTriangle(double p) {
  UncertainGraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1, p).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, p).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, p).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(WorldSamplerTest, DeterministicEdgesAlwaysPresent) {
  UncertainGraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.0).ok());
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  WorldSampler sampler(*g);
  Rng rng(5);
  BitVector mask(g->num_edges());
  for (int w = 0; w < 100; ++w) {
    const std::size_t present = sampler.SampleMask(rng, mask);
    EXPECT_EQ(present, 1u);
    EXPECT_TRUE(mask.Get(0));
    EXPECT_FALSE(mask.Get(1));
  }
}

TEST(WorldSamplerTest, EdgeFrequencyMatchesProbability) {
  const UncertainGraph g = MakePath3();
  WorldSampler sampler(g);
  Rng rng(17);
  BitVector mask(g.num_edges());
  std::size_t hits0 = 0;
  std::size_t hits1 = 0;
  constexpr int kWorlds = 20000;
  for (int w = 0; w < kWorlds; ++w) {
    sampler.SampleMask(rng, mask);
    if (mask.Get(0)) ++hits0;
    if (mask.Get(1)) ++hits1;
  }
  EXPECT_NEAR(static_cast<double>(hits0) / kWorlds, 0.8, 0.01);
  EXPECT_NEAR(static_cast<double>(hits1) / kWorlds, 0.5, 0.015);
}

/// Path on num_edges + 1 vertices with mid-range probabilities, so the
/// coins are as unpredictable as they get.
UncertainGraph MakePath(std::size_t num_edges) {
  UncertainGraphBuilder builder(static_cast<NodeId>(num_edges + 1));
  Rng rng(3);
  for (NodeId u = 0; u < num_edges; ++u) {
    EXPECT_TRUE(builder.AddEdge(u, u + 1, rng.Uniform(0.2, 0.9)).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(WorldSamplerTest, SampleMaskMatchesPerEdgeLoopBitForBit) {
  for (const std::size_t num_edges : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    SCOPED_TRACE(num_edges);
    const UncertainGraph g = MakePath(num_edges);
    ASSERT_EQ(g.num_edges(), num_edges);
    const WorldSampler sampler(g);
    BitVector mask(num_edges);
    Rng rng(99);
    Rng oracle_rng(99);
    for (int w = 0; w < 20; ++w) {
      // Every bit set, tail included: SampleMask must overwrite them all.
      for (std::uint64_t& word : mask.mutable_words()) {
        word = ~std::uint64_t{0};
      }
      const std::size_t present = sampler.SampleMask(rng, mask);

      // The oracle: the per-edge branchy loop SampleMask replaced.
      BitVector expected(num_edges);
      std::size_t expected_present = 0;
      for (std::size_t e = 0; e < num_edges; ++e) {
        if (oracle_rng.UniformDouble() < g.edges()[e].p) {
          expected.Set(e);
          ++expected_present;
        }
      }
      ASSERT_EQ(mask.words(), expected.words()) << "world " << w;
      EXPECT_EQ(present, expected_present);
      if (num_edges % 64 != 0) {
        EXPECT_EQ(mask.words().back() >> (num_edges % 64), 0u);
      }

      // The set-bit and clear-bit scans partition [0, num_edges) exactly.
      std::vector<std::size_t> set_bits;
      std::vector<std::size_t> clear_bits;
      mask.ForEachSet([&](std::size_t e) { set_bits.push_back(e); });
      mask.ForEachClear([&](std::size_t e) { clear_bits.push_back(e); });
      EXPECT_EQ(set_bits.size(), present);
      EXPECT_EQ(set_bits.size() + clear_bits.size(), num_edges);
      for (const std::size_t e : set_bits) EXPECT_TRUE(expected.Get(e));
      for (const std::size_t e : clear_bits) {
        ASSERT_LT(e, num_edges);
        EXPECT_FALSE(expected.Get(e));
      }
    }
    // Same number of draws consumed: the streams are still in step.
    EXPECT_EQ(rng(), oracle_rng());
  }
}

/// The probabilities where an integer threshold could part from the
/// double compare: zero, the smallest subnormal, one ulp of a draw, the
/// double just below 1/2, 1/2, the largest draw below 1, and 1.
std::vector<double> BoundaryProbabilities() {
  return {0.0,
          std::nextafter(0.0, 1.0),
          0x1.0p-53,
          std::nextafter(0.5, 0.0),
          0.5,
          1.0 - 0x1.0p-53,
          1.0};
}

/// k < CoinThreshold(p) must equal k·2⁻⁵³ < p, as UniformDouble draws it.
void ExpectThresholdAgrees(double p, std::uint64_t k) {
  const bool by_double = static_cast<double>(k) * 0x1.0p-53 < p;
  EXPECT_EQ(k < CoinThreshold(p), by_double) << "p=" << p << " k=" << k;
}

TEST(WorldSamplerTest, CoinThresholdMatchesDoubleCompare) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // k < 2⁵³
  std::vector<double> probabilities = BoundaryProbabilities();
  Rng rng(2018);
  for (int i = 0; i < 2000; ++i) probabilities.push_back(rng.UniformDouble());
  for (const double p : probabilities) {
    const std::uint64_t t = CoinThreshold(p);
    ASSERT_LE(t, kTop);
    for (const std::uint64_t k :
         {std::uint64_t{0}, std::uint64_t{1}, t - 1, t, t + 1, kTop - 1}) {
      if (k < kTop) ExpectThresholdAgrees(p, k);
    }
    for (int i = 0; i < 64; ++i) ExpectThresholdAgrees(p, rng() >> 11);
  }
  EXPECT_EQ(CoinThreshold(0.0), 0u);
  EXPECT_EQ(CoinThreshold(std::nextafter(0.0, 1.0)), 1u);
  EXPECT_EQ(CoinThreshold(0.5), kTop / 2);
  EXPECT_EQ(CoinThreshold(1.0), kTop);
}

TEST(WorldSamplerTest, BoundaryProbabilitiesSampleAsDoubleCompare) {
  // Every boundary p on 64 edges each, against the per-edge double loop.
  const std::vector<double> boundary = BoundaryProbabilities();
  const NodeId num_edges = static_cast<NodeId>(boundary.size() * 64);
  UncertainGraphBuilder builder(num_edges + 1);
  for (NodeId e = 0; e < num_edges; ++e) {
    ASSERT_TRUE(builder.AddEdge(e, e + 1, boundary[e % boundary.size()]).ok());
  }
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  const WorldSampler sampler(*g);
  BitVector mask(num_edges);
  Rng rng(5);
  Rng oracle_rng(5);
  for (int w = 0; w < 200; ++w) {
    sampler.SampleMask(rng, mask);
    for (NodeId e = 0; e < num_edges; ++e) {
      ASSERT_EQ(mask.Get(e), oracle_rng.UniformDouble() < g->edges()[e].p)
          << "world " << w << " edge " << e;
    }
  }
}

/// One lane width of the four-world coin kernel, reached through the
/// private header so both run whatever this CPU would choose.
struct LaneWidth {
  const char* name;
  internal::FourMasksKernel kernel;
  /// Whether the kernel runs only on CPUs with AVX2.
  bool needs_avx2;
};

class WorldSamplerLanesTest : public testing::TestWithParam<LaneWidth> {
 protected:
  void SetUp() override {
#if defined(__x86_64__) || defined(__i386__)
    if (GetParam().needs_avx2 && !__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
#endif
  }

  std::size_t SampleFourMasks(
      const WorldSampler& sampler,
      const std::array<std::uint64_t, WorldSampler::kLanes>& seeds,
      std::array<BitVector, WorldSampler::kLanes>& masks) const {
    return internal::SampleFourMasksWith(GetParam().kernel, sampler, seeds,
                                         masks);
  }
};

/// Path graph whose edge probabilities cycle through `probabilities`.
UncertainGraph MakePathWith(std::size_t num_edges,
                            const std::vector<double>& probabilities) {
  UncertainGraphBuilder builder(static_cast<NodeId>(num_edges + 1));
  for (NodeId u = 0; u < num_edges; ++u) {
    EXPECT_TRUE(
        builder.AddEdge(u, u + 1, probabilities[u % probabilities.size()])
            .ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST_P(WorldSamplerLanesTest, FourMasksMatchScalarSamplerWordForWord) {
  // 100,003 edges: > 10⁵ coins per lane and a 35-bit last word. Then
  // last words of 64, 1 and 63 bits, on mid-range coins and on coins
  // that mix p = 0 and p = 1 with fair ones.
  std::vector<UncertainGraph> graphs;
  graphs.push_back(MakePath(100003));
  for (const std::size_t num_edges : {128u, 129u, 127u}) {
    graphs.push_back(MakePath(num_edges));
    graphs.push_back(MakePathWith(num_edges, {0.0, 1.0, 0.5, 1.0, 0.0}));
  }
  for (const UncertainGraph& g : graphs) {
    SCOPED_TRACE(g.num_edges());
    const WorldSampler sampler(g);
    for (const std::array<std::uint64_t, WorldSampler::kLanes> seeds :
         {std::array<std::uint64_t, 4>{0, 1, 2, 3},
          std::array<std::uint64_t, 4>{2018, 0x9e3779b97f4a7c15ull,
                                       ~std::uint64_t{0}, 2018}}) {
      std::array<BitVector, WorldSampler::kLanes> masks;
      for (BitVector& mask : masks) {
        mask.Resize(g.num_edges());
        for (std::uint64_t& word : mask.mutable_words()) {
          word = ~std::uint64_t{0};
        }
      }
      const std::size_t present = SampleFourMasks(sampler, seeds, masks);
      std::size_t expected_present = 0;
      for (std::size_t l = 0; l < WorldSampler::kLanes; ++l) {
        Rng rng(seeds[l]);
        BitVector expected(g.num_edges());
        expected_present += sampler.SampleMask(rng, expected);
        ASSERT_EQ(masks[l].words(), expected.words()) << "lane " << l;
      }
      EXPECT_EQ(present, expected_present);
    }
  }
}

TEST_P(WorldSamplerLanesTest, FourMasksCountLikeFourScalarWorlds) {
  const UncertainGraph g = MakePath(1000);
  const WorldSampler sampler(g);
  const std::array<std::uint64_t, WorldSampler::kLanes> seeds = {7, 8, 9, 10};
  const auto counters = [] {
    const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().TakeSnapshot();
    const obs::CounterSample* worlds =
        snapshot.FindCounter("reliability/sampler/worlds");
    const obs::CounterSample* present =
        snapshot.FindCounter("reliability/sampler/edges_present");
    return std::pair<std::uint64_t, std::uint64_t>(
        worlds == nullptr ? 0 : worlds->value,
        present == nullptr ? 0 : present->value);
  };
  obs::SetEnabledForTesting(true);
  obs::GlobalMetrics().Reset();
  BitVector mask(g.num_edges());
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    sampler.SampleMask(rng, mask);
  }
  const auto scalar = counters();
  obs::GlobalMetrics().Reset();
  std::array<BitVector, WorldSampler::kLanes> masks;
  for (BitVector& lane : masks) lane.Resize(g.num_edges());
  SampleFourMasks(sampler, seeds, masks);
  const auto four = counters();
  obs::SetEnabledForTesting(false);
  obs::GlobalMetrics().Reset();
  EXPECT_EQ(scalar.first, 4u);
  EXPECT_GT(scalar.second, 0u);
  EXPECT_EQ(four, scalar);
}

INSTANTIATE_TEST_SUITE_P(
    LaneWidths, WorldSamplerLanesTest,
    testing::Values(
#if defined(__x86_64__) || defined(__i386__)
        LaneWidth{"Avx2", internal::SampleFourMasksAvx2, true},
#endif
        LaneWidth{"Sse2", internal::SampleFourMasksSse2, false}),
    [](const testing::TestParamInfo<LaneWidth>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(UniteWorldTest, StopsAtOneComponentWithTheFullPartition) {
  // A dense ER world connects early; a sparse one never does. Either
  // way the partition must be the one every present edge gives.
  for (const double avg_degree : {2.0, 40.0}) {
    constexpr NodeId kNodes = 200;
    Rng graph_rng(11);
    UncertainGraphBuilder builder(kNodes);
    for (NodeId u = 0; u < kNodes; ++u) {
      for (NodeId v = u + 1; v < kNodes; ++v) {
        if (graph_rng.Bernoulli(avg_degree / (kNodes - 1))) {
          ASSERT_TRUE(builder.AddEdge(u, v, graph_rng.Uniform(0.3, 0.9)).ok());
        }
      }
    }
    const Result<UncertainGraph> g = std::move(builder).Build();
    ASSERT_TRUE(g.ok());
    const WorldSampler sampler(*g);
    BitVector mask(g->num_edges());
    graph::UnionFind dsu(kNodes);
    graph::UnionFind full(kNodes);
    Rng rng(3);
    int connected_worlds = 0;
    for (int w = 0; w < 50; ++w) {
      sampler.SampleMask(rng, mask);
      const bool connected = UniteWorld(*g, mask, dsu);
      if (connected) ++connected_worlds;
      full.Reset();
      mask.ForEachSet([&](std::size_t e) {
        full.Union(g->edges()[e].u, g->edges()[e].v);
      });
      EXPECT_EQ(connected, full.num_components() == 1);
      EXPECT_EQ(dsu.num_components(), full.num_components());
      EXPECT_EQ(dsu.ConnectedPairs(), full.ConnectedPairs());
      for (NodeId v = 0; v < kNodes; ++v) {
        ASSERT_EQ(dsu.ComponentSize(v), full.ComponentSize(v));
        ASSERT_EQ(dsu.Connected(v, (v * 7 + 1) % kNodes),
                  full.Connected(v, (v * 7 + 1) % kNodes));
      }
    }
    EXPECT_EQ(connected_worlds, avg_degree > 10.0 ? 50 : 0);
  }
}

TEST(TwoTerminalTest, PathGraphMatchesExact) {
  const UncertainGraph g = MakePath3();
  Rng rng(42);
  const Result<double> r =
      TwoTerminalReliability(g, 0, 2, QuietOptions(20000), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.4, 0.01);
}

TEST(TwoTerminalTest, TriangleMatchesExact) {
  // R(0,1) on a triangle with all p: direct edge, or the two-hop path:
  // p + (1-p) * p^2. For p = 0.5: 0.5 + 0.5*0.25 = 0.625.
  const UncertainGraph g = MakeTriangle(0.5);
  Rng rng(43);
  const Result<double> r =
      TwoTerminalReliability(g, 0, 1, QuietOptions(20000), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.625, 0.01);
}

TEST(TwoTerminalTest, SameTerminalIsCertain) {
  const UncertainGraph g = MakePath3();
  Rng rng(1);
  const Result<double> r =
      TwoTerminalReliability(g, 1, 1, QuietOptions(100), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 1.0);
}

TEST(TwoTerminalTest, InvalidArgumentsFail) {
  const UncertainGraph g = MakePath3();
  Rng rng(1);
  EXPECT_FALSE(TwoTerminalReliability(g, 0, 99, QuietOptions(10), rng).ok());
  EXPECT_FALSE(TwoTerminalReliability(g, 0, 2, QuietOptions(0), rng).ok());
  // A stopping rule that is NaN, infinite or negative is named by every
  // estimator before it draws a world: NaN or a negative rule used to
  // switch itself off, and +inf stopped at min_samples.
  const std::pair<double MonteCarloOptions::*, std::string> rules[] = {
      {&MonteCarloOptions::target_ci_halfwidth, "target_ci_halfwidth"},
      {&MonteCarloOptions::max_rel_err, "max_rel_err"}};
  for (const auto& [rule, name] : rules) {
    for (const double bad : {std::nan(""), -0.1, HUGE_VAL, -HUGE_VAL}) {
      MonteCarloOptions options = QuietOptions(100);
      options.*rule = bad;
      Rng probe(1);
      const Result<ReliabilityEstimate> two =
          EstimateTwoTerminalReliability(g, 0, 2, options, probe);
      ASSERT_FALSE(two.ok()) << name << " = " << bad;
      EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(two.status().message().find(name), std::string::npos)
          << two.status().ToString();
      EXPECT_EQ(probe(), Rng(1)()) << "sampled before rejecting " << name;
      EXPECT_FALSE(PairSetReliability(g, {{0, 2}}, options, probe).ok());
      EXPECT_FALSE(ExpectedConnectedPairs(g, options, probe).ok());
    }
  }
}

TEST(PairSetTest, MatchesSingleEstimates) {
  const UncertainGraph g = MakePath3();
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 1}, {1, 2}, {0, 2}};
  Rng rng(44);
  const Result<std::vector<double>> r =
      PairSetReliability(g, pairs, QuietOptions(20000), rng);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_NEAR((*r)[0], 0.8, 0.01);
  EXPECT_NEAR((*r)[1], 0.5, 0.015);
  EXPECT_NEAR((*r)[2], 0.4, 0.01);
}

TEST(PairSetTest, EmptyPairsGivesEmptyResult) {
  const UncertainGraph g = MakePath3();
  Rng rng(1);
  const Result<std::vector<double>> r =
      PairSetReliability(g, {}, QuietOptions(10), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(TwoTerminalTest, RelativeErrorRuleStopsEarly) {
  // p = 0.625 on the triangle; a 10% relative-error bound needs a few
  // hundred worlds, far below the budget.
  const UncertainGraph g = MakeTriangle(0.5);
  Rng rng(2018);
  MonteCarloOptions options = QuietOptions(500000);
  options.max_rel_err = 0.1;
  options.min_samples = 100;
  const Result<ReliabilityEstimate> r =
      EstimateTwoTerminalReliability(g, 0, 1, options, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stopped_early);
  EXPECT_LT(r->worlds, options.worlds);
  EXPECT_GE(r->worlds, options.min_samples);
  EXPECT_LE(r->ci_halfwidth, options.max_rel_err * r->reliability + 1e-12);
  EXPECT_NEAR(r->reliability, 0.625, 0.1);
}

TEST(TwoTerminalTest, WithoutRulesSamplesEveryWorld) {
  const UncertainGraph g = MakeTriangle(0.5);
  Rng rng(7);
  const Result<ReliabilityEstimate> r =
      EstimateTwoTerminalReliability(g, 0, 1, QuietOptions(2000), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->stopped_early);
  EXPECT_EQ(r->worlds, 2000u);
  EXPECT_GT(r->ci_halfwidth, 0.0);
}

TEST(PairSetTest, HalfwidthTargetCoversWidestPair) {
  const UncertainGraph g = MakePath3();
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 1}, {1, 2}, {0, 2}};
  Rng rng(2018);
  MonteCarloOptions options = QuietOptions(500000);
  options.target_ci_halfwidth = 0.05;
  options.min_samples = 100;
  const Result<PairSetEstimate> r =
      EstimatePairSetReliability(g, pairs, options, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stopped_early);
  EXPECT_LT(r->worlds, options.worlds);
  // The rule applies to the worst pair, so every pair meets the target.
  EXPECT_LE(r->max_ci_halfwidth, options.target_ci_halfwidth + 1e-12);
  ASSERT_EQ(r->reliability.size(), 3u);
  EXPECT_NEAR(r->reliability[0], 0.8, 0.1);
  EXPECT_NEAR(r->reliability[1], 0.5, 0.1);
  EXPECT_NEAR(r->reliability[2], 0.4, 0.1);
}

TEST(ExpectedConnectedPairsTest, HalfwidthTargetStopsEarly) {
  const UncertainGraph g = MakePath3();
  Rng rng(2018);
  MonteCarloOptions options = QuietOptions(500000);
  options.target_ci_halfwidth = 0.05;
  options.min_samples = 100;
  const Result<ConnectedPairsEstimate> r =
      ExpectedConnectedPairs(g, options, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stopped_early);
  EXPECT_LT(r->worlds, options.worlds);
  EXPECT_LE(r->ci_halfwidth, options.target_ci_halfwidth + 1e-12);
  EXPECT_NEAR(r->expected_pairs, 1.7, 0.2);
}

TEST(ExpectedConnectedPairsTest, PathGraphMatchesExact) {
  // Pairs connected: {0,1} w.p. 0.8, {1,2} w.p. 0.5, {0,2} w.p. 0.4.
  // E[#connected pairs] = 1.7.
  const UncertainGraph g = MakePath3();
  Rng rng(45);
  const Result<ConnectedPairsEstimate> r =
      ExpectedConnectedPairs(g, QuietOptions(20000), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->expected_pairs, 1.7, 0.03);
  EXPECT_GT(r->stddev, 0.0);
  EXPECT_EQ(r->worlds, 20000u);
}

TEST(ExpectedConnectedPairsTest, CertainGraphHasZeroVariance) {
  const UncertainGraph g = MakeTriangle(1.0);
  Rng rng(46);
  const Result<ConnectedPairsEstimate> r =
      ExpectedConnectedPairs(g, QuietOptions(500), rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->expected_pairs, 3.0);
  EXPECT_DOUBLE_EQ(r->stddev, 0.0);
}

}  // namespace
}  // namespace chameleon::rel
