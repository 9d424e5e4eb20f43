#include "chameleon/graph/uncertain_graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/union_find.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"

namespace chameleon::graph {
namespace {

Result<UncertainGraph> MakeTriangle() {
  UncertainGraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 0.25).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, 1.0).ok());
  return std::move(builder).Build();
}

TEST(UncertainGraphTest, BuildAndAccessors) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_NEAR(g->mean_probability(), (0.5 + 0.25 + 1.0) / 3.0, 1e-12);
  EXPECT_NEAR(g->expected_num_edges(), 1.75, 1e-12);
  EXPECT_NEAR(g->expected_degree(0), 1.5, 1e-12);
  EXPECT_NEAR(g->expected_degree(1), 0.75, 1e-12);
  EXPECT_NEAR(g->expected_degree(2), 1.25, 1e-12);
}

TEST(UncertainGraphTest, EdgesAreCanonicalized) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  for (const UncertainEdge& e : g->edges()) EXPECT_LT(e.u, e.v);
  // Sorted by (u, v).
  EXPECT_EQ(g->edge(0).u, 0u);
  EXPECT_EQ(g->edge(0).v, 1u);
  EXPECT_EQ(g->edge(1).u, 0u);
  EXPECT_EQ(g->edge(1).v, 2u);
  EXPECT_EQ(g->edge(2).u, 1u);
  EXPECT_EQ(g->edge(2).v, 2u);
}

TEST(UncertainGraphTest, AdjacencySeesBothDirections) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  const auto neighbors = g->Neighbors(1);
  ASSERT_EQ(neighbors.size(), 2u);
  double p_total = 0.0;
  for (const AdjEntry& entry : neighbors) {
    p_total += g->edge(entry.edge).p;
    EXPECT_TRUE(entry.neighbor == 0u || entry.neighbor == 2u);
  }
  EXPECT_NEAR(p_total, 0.75, 1e-12);
}

TEST(UncertainGraphBuilderTest, RejectsBadInput) {
  UncertainGraphBuilder builder(3);
  EXPECT_EQ(builder.AddEdge(0, 0, 0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 3, 0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 1, 1.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 1, -0.1).code(), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphBuilderTest, RejectsMultiEdge) {
  UncertainGraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0, 0.7).ok());  // same undirected edge
  const Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphTest, EmptyGraph) {
  UncertainGraphBuilder builder(0);
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g->mean_probability(), 0.0);
}

TEST(WithProbabilitiesTest, RejectsBadProbabilities) {
  const Result<UncertainGraph> g = MakeTriangle();
  ASSERT_TRUE(g.ok());
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    const std::vector<double> probabilities = {0.5, bad, 0.25};
    EXPECT_EQ(g->WithProbabilities(probabilities).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(g->WithProbabilities(std::vector<double>{0.5, 0.5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(g->WithProbabilities(std::vector<double>(4, 0.5)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(g->WithProbabilities(std::vector<double>{0.0, 1.0, 0.5}).ok());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `reweighted` must equal `built` field by field: edges, every
/// adjacency list, and every expected degree bit for bit.
void ExpectSameGraph(const UncertainGraph& reweighted,
                     const UncertainGraph& built) {
  ASSERT_EQ(reweighted.num_nodes(), built.num_nodes());
  ASSERT_EQ(reweighted.num_edges(), built.num_edges());
  for (EdgeId e = 0; e < built.num_edges(); ++e) {
    EXPECT_EQ(reweighted.edge(e).u, built.edge(e).u) << e;
    EXPECT_EQ(reweighted.edge(e).v, built.edge(e).v) << e;
    EXPECT_TRUE(SameBits(reweighted.edge(e).p, built.edge(e).p)) << e;
  }
  for (NodeId v = 0; v < built.num_nodes(); ++v) {
    const auto got = reweighted.Neighbors(v);
    const auto want = built.Neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].neighbor, want[i].neighbor) << v;
      EXPECT_EQ(got[i].edge, want[i].edge) << v;
    }
    EXPECT_TRUE(SameBits(reweighted.expected_degree(v),
                         built.expected_degree(v)))
        << v;
  }
}

/// Builds `edges` (queued in the given, unsorted order), then checks that
/// reweighting it with fresh probabilities equals a second
/// UncertainGraphBuilder run over the reweighted edges.
void CheckReweightMatchesBuilder(
    NodeId nodes, const std::vector<std::pair<NodeId, NodeId>>& edges,
    Rng& rng) {
  UncertainGraphBuilder builder(nodes);
  for (const auto& [u, v] : edges) {
    ASSERT_TRUE(builder.AddEdge(u, v, rng.UniformDouble()).ok());
  }
  const Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());

  std::vector<double> fresh(g->num_edges());
  for (std::size_t e = 0; e < fresh.size(); ++e) {
    fresh[e] = e % 7 == 0 ? 0.0 : e % 7 == 1 ? 1.0 : rng.UniformDouble();
  }
  const Result<UncertainGraph> reweighted = g->WithProbabilities(fresh);
  ASSERT_TRUE(reweighted.ok());

  // The second build gets the same edges in reverse of canonical order.
  UncertainGraphBuilder rebuild(nodes);
  for (auto e = static_cast<EdgeId>(g->num_edges()); e-- > 0;) {
    ASSERT_TRUE(rebuild.AddEdge(g->edge(e).v, g->edge(e).u, fresh[e]).ok());
  }
  const Result<UncertainGraph> built = std::move(rebuild).Build();
  ASSERT_TRUE(built.ok());
  ExpectSameGraph(*reweighted, *built);
}

TEST(WithProbabilitiesTest, MatchesBuilderOnEr2k) {
  Rng rng(2000);
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<std::pair<NodeId, NodeId>> edges;
  while (edges.size() < 8000) {
    const auto u = static_cast<NodeId>(rng.UniformInt(2000));
    const auto v = static_cast<NodeId>(rng.UniformInt(2000));
    if (u == v || !seen.emplace(std::min(u, v), std::max(u, v)).second) {
      continue;
    }
    edges.emplace_back(u, v);
  }
  CheckReweightMatchesBuilder(2000, edges, rng);
}

TEST(WithProbabilitiesTest, MatchesBuilderOnStar) {
  Rng rng(17);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId leaf = 300; leaf > 0; --leaf) edges.emplace_back(leaf, 0);
  CheckReweightMatchesBuilder(301, edges, rng);
}

TEST(WithProbabilitiesTest, SharesTheTopologyAndOutlivesTheInput) {
  // A path with chords to vertex 0.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < 200; ++v) {
    edges.emplace_back(v - 1, v);
    if (v % 3 == 0) edges.emplace_back(0, v);
  }
  auto input = std::make_unique<UncertainGraph>();
  std::vector<const AdjEntry*> storage;
  UncertainGraph reweighted;
  UncertainGraph copy;
  {
    UncertainGraphBuilder builder(200);
    for (const auto& [u, v] : edges) {
      ASSERT_TRUE(builder.AddEdge(u, v, 0.5).ok());
    }
    Result<UncertainGraph> built = std::move(builder).Build();
    ASSERT_TRUE(built.ok());
    *input = *std::move(built);
    Result<UncertainGraph> fresh =
        input->WithProbabilities(std::vector<double>(input->num_edges(), 0.25));
    ASSERT_TRUE(fresh.ok());
    reweighted = *std::move(fresh);
    copy = *input;
    for (NodeId v = 0; v < input->num_nodes(); ++v) {
      storage.push_back(input->Neighbors(v).data());
      EXPECT_EQ(reweighted.Neighbors(v).data(), storage.back()) << v;
      EXPECT_EQ(copy.Neighbors(v).data(), storage.back()) << v;
    }
  }
  // The shared topology lives as long as any graph that uses it.
  input.reset();
  copy = UncertainGraph();
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < reweighted.num_nodes(); ++v) {
    EXPECT_EQ(reweighted.Neighbors(v).data(), storage[v]) << v;
    for (const AdjEntry& entry : reweighted.Neighbors(v)) {
      EXPECT_TRUE(reweighted.edge(entry.edge).u == v ||
                  reweighted.edge(entry.edge).v == v);
      ++degree_sum;
    }
    EXPECT_EQ(reweighted.expected_degree(v),
              0.25 * static_cast<double>(reweighted.Neighbors(v).size()));
  }
  EXPECT_EQ(degree_sum, 2 * reweighted.num_edges());
}

TEST(UnionFindTest, UnionAndComponents) {
  UnionFind dsu(6);
  EXPECT_EQ(dsu.num_components(), 6u);
  EXPECT_TRUE(dsu.Union(0, 1));
  EXPECT_TRUE(dsu.Union(1, 2));
  EXPECT_FALSE(dsu.Union(0, 2));  // already merged
  EXPECT_TRUE(dsu.Union(3, 4));
  EXPECT_EQ(dsu.num_components(), 3u);
  EXPECT_TRUE(dsu.Connected(0, 2));
  EXPECT_FALSE(dsu.Connected(0, 3));
  EXPECT_EQ(dsu.ComponentSize(1), 3u);
  // C(3,2) + C(2,2) + C(1,2) = 3 + 1 + 0.
  EXPECT_EQ(dsu.ConnectedPairs(), 4u);
}

TEST(UnionFindTest, ResetReusesStorage) {
  UnionFind dsu(4);
  dsu.Union(0, 1);
  dsu.Union(2, 3);
  dsu.Reset();
  EXPECT_EQ(dsu.num_components(), 4u);
  EXPECT_FALSE(dsu.Connected(0, 1));
  EXPECT_EQ(dsu.ConnectedPairs(), 0u);
}

TEST(BitVectorTest, SetGetCount) {
  const auto set_bits = [](const BitVector& bits) {
    std::vector<std::size_t> out;
    bits.ForEachSet([&out](std::size_t i) { out.push_back(i); });
    return out;
  };
  BitVector bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_TRUE(set_bits(bits).empty());
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_TRUE(bits.Get(129));
  EXPECT_FALSE(bits.Get(1));
  EXPECT_EQ(set_bits(bits), (std::vector<std::size_t>{0, 64, 129}));
  bits.Clear(64);
  EXPECT_FALSE(bits.Get(64));
  bits.ClearAll();
  EXPECT_TRUE(set_bits(bits).empty());
  EXPECT_EQ(bits.words().size(), 3u);
}

}  // namespace
}  // namespace chameleon::graph
