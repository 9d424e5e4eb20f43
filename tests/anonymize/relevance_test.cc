#include "chameleon/anonymize/relevance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anonymize/relevance_oracle.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/graph/union_find.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"

namespace chameleon::anonymize {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

UncertainGraph MakeCycle12() {
  UncertainGraphBuilder builder(12);
  for (NodeId u = 0; u < 12; ++u) {
    EXPECT_TRUE(builder.AddEdge(u, (u + 1) % 12, 0.5).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

UncertainGraph MakeStar9() {
  UncertainGraphBuilder builder(9);
  for (NodeId leaf = 1; leaf < 9; ++leaf) {
    EXPECT_TRUE(builder.AddEdge(0, leaf, 0.9).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// ER G(n, q) with edge probabilities uniform in [lo, hi). With
/// `impossible_edge`, the first pair the draw skips becomes one more edge
/// with p = 0 (it takes no draw, so the other edges are unchanged).
UncertainGraph MakeEr(NodeId n, double avg_degree, double lo, double hi,
                      std::uint64_t seed, bool impossible_edge = false) {
  Rng rng(seed);
  const double q = avg_degree / static_cast<double>(n - 1);
  UncertainGraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(q)) {
        EXPECT_TRUE(builder.AddEdge(u, v, rng.Uniform(lo, hi)).ok());
      } else if (impossible_edge) {
        EXPECT_TRUE(builder.AddEdge(u, v, 0.0).ok());
        impossible_edge = false;
      }
    }
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Sparse ER graph on 64 nodes with heterogeneous probabilities — the
/// "realistic" cross-validation fixture.
UncertainGraph MakeEr64() { return MakeEr(64, 4.0, 0.1, 0.9, 7); }

/// Per-edge cross-check at 5σ of the reused estimate (run on `g` with
/// `options`) against the naive one: the two estimators are independent
/// Monte Carlo runs, so their difference has variance var_a + var_b. The
/// reused estimate's variance comes from the oracle kernel, which
/// tallies the same worlds with δ² kept and must give the same err bit
/// for bit.
void ExpectWithinMcError(const UncertainGraph& g,
                         const RelevanceOptions& options,
                         const EdgeRelevance& reused,
                         const EdgeRelevanceWithVariance& naive) {
  const EdgeRelevanceWithVariance a = OracleEstimateRelevance(g, options);
  ASSERT_EQ(a.err, reused.err);
  ASSERT_EQ(a.err.size(), naive.err.size());
  for (std::size_t e = 0; e < a.err.size(); ++e) {
    const double sd = std::sqrt(a.err_variance[e] + naive.err_variance[e]);
    const double bound = 5.0 * sd + 1e-9;
    EXPECT_NEAR(a.err[e], naive.err[e], bound)
        << "edge " << e << " (N_a=" << a.absent_worlds[e]
        << ", N_b=" << naive.absent_worlds[e] << ")";
  }
}

TEST(RelevanceTest, SingleEdgeIsExactlyOne) {
  // With one edge (u, v), every world with the edge absent has both
  // endpoints as singletons: delta = 1 in every usable world, so the
  // estimate is exact regardless of N.
  UncertainGraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  RelevanceOptions options;
  options.worlds = 64;
  const Result<EdgeRelevance> rel = EstimateRelevance(*g, options);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->err.size(), 1u);
  EXPECT_DOUBLE_EQ(rel->err[0], 1.0);
  EXPECT_DOUBLE_EQ(OracleEstimateRelevance(*g, options).err_variance[0], 0.0);
  EXPECT_GT(rel->absent_worlds[0], 0u);
  EXPECT_DOUBLE_EQ(rel->vertex_err[0], 1.0);
  EXPECT_DOUBLE_EQ(rel->vertex_err[1], 1.0);
}

TEST(RelevanceTest, TwoEdgePathMatchesClosedForm) {
  // Path 0-1-2 with edges a=(0,1), b=(1,2):
  //   ERR^a = E_b[pairs(W+a) - pairs(W-a)] = 2*p_b + (1-p_b) = 1 + p_b.
  const double pa = 0.4;
  const double pb = 0.7;
  UncertainGraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, pa).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, pb).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  RelevanceOptions options;
  options.worlds = 20000;
  const Result<EdgeRelevance> rel = EstimateRelevance(*g, options);
  ASSERT_TRUE(rel.ok());
  const EdgeRelevanceWithVariance oracle = OracleEstimateRelevance(*g, options);
  ASSERT_EQ(oracle.err, rel->err);
  EXPECT_NEAR(rel->err[0], 1.0 + pb,
              5.0 * std::sqrt(oracle.err_variance[0]) + 1e-9);
  EXPECT_NEAR(rel->err[1], 1.0 + pa,
              5.0 * std::sqrt(oracle.err_variance[1]) + 1e-9);
}

TEST(RelevanceTest, CertainEdgeIsUnobservable) {
  // p = 1 edges are never absent: N_e = 0 and ERR reported as 0.
  UncertainGraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.5).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  RelevanceOptions options;
  options.worlds = 256;
  const Result<EdgeRelevance> rel = EstimateRelevance(*g, options);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->absent_worlds[0], 0u);
  EXPECT_DOUBLE_EQ(rel->err[0], 0.0);
  EXPECT_GT(rel->err[1], 0.0);
}

TEST(RelevanceTest, ReusedMatchesNaiveOnCycle) {
  const UncertainGraph g = MakeCycle12();
  RelevanceOptions options;
  options.worlds = 4000;
  const Result<EdgeRelevance> reused = EstimateRelevance(g, options);
  const Result<EdgeRelevanceWithVariance> naive =
      EstimateRelevanceNaive(g, options);
  ASSERT_TRUE(reused.ok());
  ASSERT_TRUE(naive.ok());
  ExpectWithinMcError(g, options, *reused, *naive);
  // Symmetry: every cycle edge has the same true ERR, so the estimates
  // cluster tightly around the shared mean.
  EXPECT_GT(reused->mean_err, 0.0);
  EXPECT_GE(reused->max_err, reused->mean_err);
}

TEST(RelevanceTest, ReusedMatchesNaiveOnStar) {
  const UncertainGraph g = MakeStar9();
  RelevanceOptions options;
  options.worlds = 4000;
  const Result<EdgeRelevance> reused = EstimateRelevance(g, options);
  const Result<EdgeRelevanceWithVariance> naive =
      EstimateRelevanceNaive(g, options);
  ASSERT_TRUE(reused.ok());
  ASSERT_TRUE(naive.ok());
  ExpectWithinMcError(g, options, *reused, *naive);
}

TEST(RelevanceTest, ReusedMatchesNaiveOnEr64) {
  const UncertainGraph g = MakeEr64();
  ASSERT_GT(g.num_edges(), 50u);
  RelevanceOptions options;
  options.worlds = 2000;
  const Result<EdgeRelevance> reused = EstimateRelevance(g, options);
  const Result<EdgeRelevanceWithVariance> naive =
      EstimateRelevanceNaive(g, options);
  ASSERT_TRUE(reused.ok());
  ASSERT_TRUE(naive.ok());
  ExpectWithinMcError(g, options, *reused, *naive);
}

TEST(RelevanceTest, BitIdenticalAcrossWorkerCounts) {
  // 512 worlds × ~130 edges is far above the parallel grain, so every
  // thread count above 1 really runs on several workers (asserted from
  // the parallel_region telemetry on multi-core hosts).
  const UncertainGraph g = MakeEr64();
  RelevanceOptions options;
  options.worlds = 512;
  options.heartbeat = false;
  options.threads = 1;
  const Result<EdgeRelevance> one = EstimateRelevance(g, options);
  ASSERT_TRUE(one.ok());
  const unsigned hw = std::thread::hardware_concurrency();
  const std::string path = testing::TempDir() + "/relevance_workers.jsonl";
  obs::ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  for (int threads : {1, 2, 3, 7, 8}) {
    options.threads = threads;
    std::remove(path.c_str());
    ASSERT_TRUE(obs::InitObservability(obs_options).ok());
    const Result<EdgeRelevance> many = EstimateRelevance(g, options);
    obs::ShutdownObservability();
    double workers = 0.0;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      const std::optional<obs::JsonValue> record = obs::ParseJson(line);
      if (record.has_value() && record->Str("type") == "parallel_region") {
        workers = std::max(workers, record->Num("workers"));
      }
    }
    std::remove(path.c_str());
    ASSERT_TRUE(many.ok());
    EXPECT_EQ(one->err, many->err) << threads << " threads";
    EXPECT_EQ(one->absent_worlds, many->absent_worlds);
    EXPECT_EQ(one->vertex_err, many->vertex_err);
    EXPECT_EQ(one->mean_world_mass, many->mean_world_mass);
    if (threads >= 2 && hw >= 2) {
      EXPECT_GT(workers, 1.0) << threads << " threads granted one worker";
    }
  }
}

/// Random graph with exactly `num_edges` distinct edges on 40 vertices
/// and mid-range probabilities.
UncertainGraph MakeRandomEdges(std::size_t num_edges) {
  constexpr NodeId kNodes = 40;
  Rng rng(11);
  std::set<std::pair<NodeId, NodeId>> chosen;
  while (chosen.size() < num_edges) {
    const auto u = static_cast<NodeId>(rng.UniformInt(kNodes));
    const auto v = static_cast<NodeId>(rng.UniformInt(kNodes));
    if (u != v) chosen.insert({std::min(u, v), std::max(u, v)});
  }
  UncertainGraphBuilder builder(kNodes);
  for (const auto& [u, v] : chosen) {
    EXPECT_TRUE(builder.AddEdge(u, v, rng.Uniform(0.2, 0.9)).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(RelevanceTest, PartialLastMaskWordCountsNoPhantomEdges) {
  // 65 and 130 edges leave 63 and 62 unused bits in the last mask word;
  // the clear-bit sweep must never tally one of them as an absent edge.
  for (const std::size_t num_edges : {65u, 130u}) {
    SCOPED_TRACE(num_edges);
    const UncertainGraph g = MakeRandomEdges(num_edges);
    ASSERT_EQ(g.num_edges(), num_edges);
    RelevanceOptions options;
    options.worlds = 1500;
    options.heartbeat = false;
    options.threads = 2;
    const Result<EdgeRelevance> reused = EstimateRelevance(g, options);
    ASSERT_TRUE(reused.ok());
    ASSERT_EQ(reused->err.size(), num_edges);
    ASSERT_EQ(reused->absent_worlds.size(), num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      EXPECT_LE(reused->absent_worlds[e], reused->worlds) << "edge " << e;
    }
    const Result<EdgeRelevanceWithVariance> naive =
        EstimateRelevanceNaive(g, options);
    ASSERT_TRUE(naive.ok());
    ExpectWithinMcError(g, options, *reused, *naive);
  }
}

TEST(RelevanceTest, EarlyStopIsDeterministicAndFlagged) {
  const UncertainGraph g = MakeCycle12();
  RelevanceOptions options;
  options.worlds = 100000;
  options.max_rel_err = 0.05;
  options.threads = 2;
  const Result<EdgeRelevance> a = EstimateRelevance(g, options);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->stopped_early);
  EXPECT_LT(a->worlds, options.worlds);
  options.threads = 7;
  const Result<EdgeRelevance> b = EstimateRelevance(g, options);
  ASSERT_TRUE(b.ok());
  // The stopping decision is made at deterministic checkpoints, so the
  // world count (and therefore every estimate) is thread-invariant.
  EXPECT_EQ(a->worlds, b->worlds);
  EXPECT_EQ(a->err, b->err);
}

/// Two identical 31-vertex binary trees and nothing else. Internal edges
/// are certain; each tree's two deepest leaf edges are fair coins. When
/// both trees keep both coin leaves, their components tie at exactly
/// half the vertices; when both lose the same number, they tie below.
UncertainGraph MakeTwinTrees() {
  constexpr NodeId kTree = 31;
  UncertainGraphBuilder builder(2 * kTree);
  for (NodeId offset : {NodeId{0}, kTree}) {
    for (NodeId child = 1; child < kTree; ++child) {
      const double p = child >= kTree - 2 ? 0.5 : 1.0;
      EXPECT_TRUE(
          builder.AddEdge(offset + (child - 1) / 2, offset + child, p).ok());
    }
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Sparse ER whose coins are a mix of certain (p = 1), impossible
/// (p = 0) and fractional edges.
UncertainGraph MakeMixedCertainty() {
  Rng rng(23);
  UncertainGraphBuilder builder(120);
  for (NodeId u = 0; u < 120; ++u) {
    for (NodeId v = u + 1; v < 120; ++v) {
      if (!rng.Bernoulli(3.0 / 119.0)) continue;
      const std::uint64_t kind = rng.UniformInt(3);
      const double p = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.Uniform(0.1, 0.9);
      EXPECT_TRUE(builder.AddEdge(u, v, p).ok());
    }
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

void ExpectSameAsOracle(const EdgeRelevance& got, const EdgeRelevance& want) {
  EXPECT_EQ(got.err, want.err);
  EXPECT_EQ(got.absent_worlds, want.absent_worlds);
  EXPECT_EQ(got.vertex_err, want.vertex_err);
  EXPECT_EQ(got.mean_err, want.mean_err);
  EXPECT_EQ(got.max_err, want.max_err);
  EXPECT_EQ(got.mean_world_mass, want.mean_world_mass);
  EXPECT_EQ(got.worlds, want.worlds);
  EXPECT_EQ(got.stopped_early, want.stopped_early);
}

struct OracleFixture {
  const char* name;
  UncertainGraph graph;
};

std::vector<OracleFixture> OracleFixtures() {
  std::vector<OracleFixture> fixtures;
  // Every world connected: the unions stop early and no edge is swept,
  // so absent counts go through the counter planes. The p = 0 edge is
  // absent from every world: its count is a block's whole world count,
  // which needs the top plane when that count is a power of two.
  fixtures.push_back(
      {"connected dense ER", MakeEr(60, 30.0, 0.3, 0.9, 31, true)});
  // Present degree ~2.6: a giant component plus fragments.
  fixtures.push_back({"sparse ER, giant", MakeEr(400, 4.0, 0.4, 0.9, 37)});
  // p·d ≈ 0.75 < 1: no component near half the vertices.
  fixtures.push_back({"fragmented ER", MakeEr(400, 3.0, 0.1, 0.4, 41)});
  fixtures.push_back({"twin trees", MakeTwinTrees()});
  fixtures.push_back({"p in {0, 1} mixed", MakeMixedCertainty()});
  // num_edges % 64 = 0, 1, 63: a full, a one-bit and a 63-bit last word.
  for (const std::size_t num_edges : {128u, 129u, 127u}) {
    fixtures.push_back({"random edges", MakeRandomEdges(num_edges)});
  }
  return fixtures;
}

/// How a fixture's first `worlds` worlds split between the world shapes
/// the fixtures must cover: connected (the unions stop early and nothing
/// is swept), a component of at least half the vertices plus fragments,
/// and fragmented; plus the giant worlds whose two largest components
/// tie.
struct WorldShapes {
  std::size_t connected = 0;
  std::size_t giant = 0;
  std::size_t fragmented = 0;
  std::size_t tied = 0;
};

WorldShapes CountWorldShapes(const UncertainGraph& g, std::size_t worlds) {
  WorldShapes shapes;
  graph::UnionFind dsu(g.num_nodes());
  BitVector mask(g.num_edges());
  OracleTally unused;
  unused.delta_sum.assign(g.num_edges(), 0);
  unused.delta_sq_sum.assign(g.num_edges(), 0);
  unused.absent.assign(g.num_edges(), 0);
  for (std::size_t w = 0; w < worlds; ++w) {
    OracleTallyWorld(g, OraclePerWorldSeed(99, w), dsu, mask, unused);
    std::vector<NodeId> sizes;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dsu.Find(v) == v) sizes.push_back(dsu.ComponentSize(v));
    }
    std::sort(sizes.rbegin(), sizes.rend());
    if (sizes.size() == 1) {
      ++shapes.connected;
    } else if (std::size_t{sizes[0]} * 2 >= g.num_nodes()) {
      ++shapes.giant;
      if (sizes[0] == sizes[1]) ++shapes.tied;
    } else {
      ++shapes.fragmented;
    }
  }
  return shapes;
}

TEST(RelevanceOracleTest, FixturesCoverEveryWorldShape) {
  const std::vector<OracleFixture> fixtures = OracleFixtures();
  constexpr std::size_t kWorlds = 203;
  EXPECT_EQ(CountWorldShapes(fixtures[0].graph, kWorlds).connected, kWorlds);
  EXPECT_GT(CountWorldShapes(fixtures[1].graph, kWorlds).giant, kWorlds / 2);
  EXPECT_GT(CountWorldShapes(fixtures[2].graph, kWorlds).fragmented,
            kWorlds / 2);
  EXPECT_GT(CountWorldShapes(fixtures[3].graph, kWorlds).tied, 0u);
  EXPECT_EQ(fixtures[3].graph.num_nodes(), 62u);  // the two trees only
  EXPECT_EQ(fixtures[5].graph.num_edges() % 64, 0u);
  EXPECT_EQ(fixtures[6].graph.num_edges() % 64, 1u);
  EXPECT_EQ(fixtures[7].graph.num_edges() % 64, 63u);
}

TEST(RelevanceOracleTest, MatchesOracleBitForBitAcrossWorkers) {
  // 203 worlds: rounds of 32, 32, 64 and 75, so blocks of every length
  // mod 4 meet the four-world sampler and its scalar tail.
  for (const OracleFixture& fixture : OracleFixtures()) {
    SCOPED_TRACE(fixture.name);
    RelevanceOptions options;
    options.worlds = 203;
    options.seed = 99;
    options.heartbeat = false;
    const EdgeRelevance want = OracleEstimateRelevance(fixture.graph, options);
    for (const int threads : {1, 2, 3, 8}) {
      SCOPED_TRACE(threads);
      options.threads = threads;
      const Result<EdgeRelevance> got =
          EstimateRelevance(fixture.graph, options);
      ASSERT_TRUE(got.ok());
      ExpectSameAsOracle(*got, want);
    }
  }
}

TEST(RelevanceOracleTest, LongSerialBlockMatchesOracle) {
  // One round on one worker, so one block: 611 worlds are 152 four-world
  // samples and a scalar tail of three; 512 worlds are a power of two,
  // which the connected fixture's p = 0 edge counts to exactly.
  for (const std::size_t worlds : {611u, 512u}) {
    SCOPED_TRACE(worlds);
    for (const OracleFixture& fixture : OracleFixtures()) {
      SCOPED_TRACE(fixture.name);
      RelevanceOptions options;
      options.worlds = worlds;
      options.min_worlds = worlds;
      options.threads = 1;
      options.heartbeat = false;
      const Result<EdgeRelevance> got =
          EstimateRelevance(fixture.graph, options);
      ASSERT_TRUE(got.ok());
      ExpectSameAsOracle(*got, OracleEstimateRelevance(fixture.graph, options));
    }
  }
}

TEST(RelevanceOracleTest, EarlyStopMatchesOracle) {
  std::size_t stopped = 0;
  for (const OracleFixture& fixture : OracleFixtures()) {
    SCOPED_TRACE(fixture.name);
    RelevanceOptions options;
    options.worlds = 3001;
    options.max_rel_err = 0.05;
    options.heartbeat = false;
    const EdgeRelevance want = OracleEstimateRelevance(fixture.graph, options);
    if (want.stopped_early) ++stopped;
    for (const int threads : {1, 3}) {
      options.threads = threads;
      const Result<EdgeRelevance> got =
          EstimateRelevance(fixture.graph, options);
      ASSERT_TRUE(got.ok());
      ExpectSameAsOracle(*got, want);
    }
  }
  // The rule must actually fire on the fixtures with relevance mass.
  EXPECT_GE(stopped, 4u);
}

TEST(RelevanceOracleTest, ProgressRecordsCarryEachRoundsEstimates) {
  // relevance_progress records are the only readers of a round's
  // estimates before the last, so each must carry the oracle's estimates
  // at its world count: 32, 64, 128 and 203 worlds.
  const UncertainGraph g = MakeEr(400, 4.0, 0.4, 0.9, 37);
  const std::string path =
      testing::TempDir() + "/relevance_progress_test.jsonl";
  std::remove(path.c_str());
  obs::ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(obs_options).ok());
  RelevanceOptions options;
  options.worlds = 203;
  options.seed = 99;
  options.threads = 2;
  options.heartbeat = false;
  const Result<EdgeRelevance> got = EstimateRelevance(g, options);
  obs::ShutdownObservability();
  ASSERT_TRUE(got.ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<obs::JsonValue> records;
  for (std::string line; std::getline(in, line);) {
    std::optional<obs::JsonValue> record = obs::ParseJson(line);
    ASSERT_TRUE(record.has_value()) << line;
    if (record->Str("type") == "relevance_progress") {
      records.push_back(*std::move(record));
    }
  }
  std::remove(path.c_str());
  const std::vector<std::size_t> checkpoints = {32, 64, 128, 203};
  ASSERT_EQ(records.size(), checkpoints.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(checkpoints[i]);
    options.worlds = checkpoints[i];
    const EdgeRelevanceWithVariance want = OracleEstimateRelevance(g, options);
    EXPECT_EQ(records[i].Num("worlds"), static_cast<double>(want.worlds));
    EXPECT_EQ(records[i].Num("mean_err"), want.mean_err);
    EXPECT_EQ(records[i].Num("max_err"), want.max_err);
    EXPECT_GT(want.max_err, 0.0);
  }
  EXPECT_TRUE(records.back().Flag("final"));
}

TEST(RelevanceTest, ZeroWorldsIsInvalidArgument) {
  const UncertainGraph g = MakeCycle12();
  RelevanceOptions options;
  options.worlds = 0;
  EXPECT_FALSE(EstimateRelevance(g, options).ok());
}

}  // namespace
}  // namespace chameleon::anonymize
