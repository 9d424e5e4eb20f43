#include "chameleon/graph/generators.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/util/rng.h"

namespace chameleon::graph {
namespace {

/// The loop RandomEdges replaced, as the benchmark suites and the tools
/// each carried it: distinct pairs drawn as (u, v) then p, in draw order.
/// `max_attempts` is the tools' cap; the suites ran uncapped.
std::vector<std::tuple<NodeId, NodeId, double>> OldRandomEdges(
    NodeId nodes, double avg_degree, double p_min, double p_max, Rng& rng,
    std::size_t max_attempts) {
  const auto target =
      static_cast<std::size_t>(avg_degree * static_cast<double>(nodes) / 2.0);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  std::size_t attempts = 0;
  while (edges.size() < target && attempts < max_attempts) {
    ++attempts;
    auto u = static_cast<NodeId>(rng.UniformInt(nodes));
    auto v = static_cast<NodeId>(rng.UniformInt(nodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
      continue;
    }
    edges.emplace_back(u, v, rng.Uniform(p_min, p_max));
  }
  return edges;
}

RandomGraphOptions Options(std::int64_t nodes, double avg_degree) {
  RandomGraphOptions options;
  options.nodes = nodes;
  options.avg_degree = avg_degree;
  return options;
}

TEST(RandomEdgesTest, DrawsExactlyAsTheLoopsItReplaced) {
  // Every graph the suites, the gates and the tools' defaults use, plus
  // dense ones; {10, 9.0} asks for all 45 pairs.
  const struct {
    NodeId nodes;
    double avg_degree;
    std::uint64_t seed;
  } cases[] = {{2000, 8.0, 2018}, {500, 6.0, 2018}, {1000, 8.0, 2018},
               {2000, 50.0, 2018}, {200, 4.0, 7},   {50, 45.0, 1},
               {10, 9.0, 3},       {20000, 8.0, 2018}};
  for (const auto& c : cases) {
    const std::size_t target = static_cast<std::size_t>(
        c.avg_degree * static_cast<double>(c.nodes) / 2.0);
    for (const bool capped : {false, true}) {
      Rng old_rng(c.seed);
      const auto old = OldRandomEdges(
          c.nodes, c.avg_degree, 0.1, 0.9, old_rng,
          capped ? target * 20 + 100 : std::numeric_limits<std::size_t>::max());
      Rng rng(c.seed);
      const Result<std::vector<UncertainEdge>> edges =
          RandomEdges(Options(c.nodes, c.avg_degree), rng);
      ASSERT_TRUE(edges.ok()) << edges.status().ToString();
      ASSERT_EQ(edges->size(), old.size()) << c.nodes << " " << c.avg_degree;
      for (std::size_t i = 0; i < old.size(); ++i) {
        const auto& [u, v, p] = old[i];
        ASSERT_EQ((*edges)[i].u, u) << i;
        ASSERT_EQ((*edges)[i].v, v) << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>((*edges)[i].p),
                  std::bit_cast<std::uint64_t>(p))
            << i;
      }
      // The tools keep drawing from the same stream after the graph.
      EXPECT_EQ(rng(), old_rng());
    }
  }
}

TEST(RandomGraphTest, BuildsTheDrawnEdges) {
  Rng rng(2018);
  const Result<UncertainGraph> graph = RandomGraph(Options(300, 5.0), rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 300u);
  EXPECT_EQ(graph->num_edges(), 750u);
  for (const UncertainEdge& e : graph->edges()) {
    EXPECT_LT(e.u, e.v);
    EXPECT_GE(e.p, 0.1);
    EXPECT_LT(e.p, 0.9);
  }
}

TEST(RandomEdgesTest, RejectsBadInputBeforeDrawing) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<RandomGraphOptions> bad;
  for (const std::int64_t nodes :
       {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1},
        std::int64_t{4294967296}, std::int64_t{4294967298},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    bad.push_back(Options(nodes, 4.0));
  }
  for (const double degree : {-4.0, -1e-9, nan, inf, -inf, 1e12}) {
    bad.push_back(Options(200, degree));
  }
  bad.push_back(Options(10, 9.5));  // 47 edges > 45 pairs
  for (const auto& [p_min, p_max] :
       std::vector<std::pair<double, double>>{{-0.1, 0.5},
                                              {0.5, 1.5},
                                              {0.9, 0.1},
                                              {nan, 0.5},
                                              {0.1, nan},
                                              {-inf, 0.5},
                                              {0.1, inf}}) {
    RandomGraphOptions options = Options(200, 4.0);
    options.p_min = p_min;
    options.p_max = p_max;
    bad.push_back(options);
  }
  for (const RandomGraphOptions& options : bad) {
    Rng rng(1);
    const Rng untouched = rng;
    const Result<std::vector<UncertainEdge>> edges = RandomEdges(options, rng);
    EXPECT_EQ(edges.status().code(), StatusCode::kInvalidArgument)
        << options.nodes << " " << options.avg_degree << " " << options.p_min
        << " " << options.p_max;
    Rng copy = untouched;
    EXPECT_EQ(rng(), copy());  // nothing was drawn
    EXPECT_FALSE(RandomGraph(options, rng).ok());
  }
  // The edges of the range are fine: two nodes, one pair, a point mass.
  RandomGraphOptions edge = Options(2, 1.0);
  edge.p_min = 1.0;
  edge.p_max = 1.0;
  Rng rng(1);
  const Result<std::vector<UncertainEdge>> one = RandomEdges(edge, rng);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0].p, 1.0);
  EXPECT_TRUE(RandomEdges(Options(4294967295, 0.0), rng).ok());
}

}  // namespace
}  // namespace chameleon::graph
