#include "chameleon/graph/io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"

namespace chameleon::graph {
namespace {

TEST(IoTest, ParseBasicEdgeList) {
  const std::string in(
      "# a comment\n"
      "0 1 0.5\n"
      "\n"
      "1 2 0.25\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "test");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g->edge(0).p, 0.5);
}

TEST(IoTest, NodesHeaderFixesIsolatedVertices) {
  const std::string in(
      "# nodes 10\n"
      "0 1 0.5\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "test");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 10u);
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(IoTest, MalformedLineFails) {
  const std::string in("0 1\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "bad.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("bad.edges:1"), std::string::npos);
}

TEST(IoTest, BadProbabilityFails) {
  const std::string in("0 1 1.5\n");
  EXPECT_FALSE(ParseEdgeList(in, "test").ok());
}

TEST(IoTest, BadProbabilityNamesFileAndLine) {
  // Comments and blank lines still advance the reported line number.
  const std::string in(
      "# header\n"
      "0 1 0.5\n"
      "\n"
      "1 2 1.5\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "probs.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("probs.edges:4"), std::string::npos)
      << g.status().message();
}

TEST(IoTest, DuplicateEdgeNamesFileAndLine) {
  const std::string in(
      "0 1 0.5\n"
      "1 2 0.25\n"
      "1 0 0.75\n");  // duplicate of line 1, reversed endpoints
  const Result<UncertainGraph> g = ParseEdgeList(in, "dup.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("dup.edges:3"), std::string::npos)
      << g.status().message();
  EXPECT_NE(g.status().message().find("duplicate"), std::string::npos);
}

TEST(IoTest, SelfLoopNamesFileAndLine) {
  const std::string in(
      "0 1 0.5\n"
      "2 2 0.25\n");
  const Result<UncertainGraph> g = ParseEdgeList(in, "loop.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("loop.edges:2"), std::string::npos)
      << g.status().message();
  EXPECT_NE(g.status().message().find("self-loop"), std::string::npos);
}

TEST(IoTest, RoundTripThroughFile) {
  UncertainGraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.125).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, 0.875).ok());
  const Result<UncertainGraph> original = std::move(builder).Build();
  ASSERT_TRUE(original.ok());

  const std::string path =
      testing::TempDir() + "/chameleon_io_roundtrip.edges";
  ASSERT_TRUE(WriteEdgeList(*original, path).ok());

  const Result<UncertainGraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), original->num_nodes());
  ASSERT_EQ(loaded->num_edges(), original->num_edges());
  for (std::size_t e = 0; e < loaded->num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(static_cast<EdgeId>(e)),
              original->edge(static_cast<EdgeId>(e)));
  }
  std::remove(path.c_str());
}

TEST(IoTest, ParseEmitsGraphSummaryRecord) {
  const std::string jsonl = testing::TempDir() + "/io_graph_summary.jsonl";
  std::remove(jsonl.c_str());
  obs::ObsOptions options;
  options.metrics_out = jsonl;
  options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(options).ok());

  // Path graph 0-1-2-3: degrees [1, 2, 2, 1].
  const std::string in("0 1 0.5\n1 2 0.25\n2 3 0.5\n");
  ASSERT_TRUE(ParseEdgeList(in, "summary.edges").ok());
  obs::ShutdownObservability();

  std::ifstream stream(jsonl);
  std::string line;
  std::string summary;
  while (std::getline(stream, line)) {
    if (obs::JsonlStringField(line, "type") == "graph_summary") {
      summary = line;
    }
  }
  ASSERT_FALSE(summary.empty()) << "no graph_summary record in " << jsonl;
  EXPECT_EQ(obs::JsonlStringField(summary, "origin"), "summary.edges");
  EXPECT_EQ(obs::JsonlNumberField(summary, "nodes"), 4.0);
  EXPECT_EQ(obs::JsonlNumberField(summary, "edges"), 3.0);
  EXPECT_EQ(obs::JsonlNumberField(summary, "mean_degree"), 1.5);
  EXPECT_EQ(obs::JsonlNumberField(summary, "max_degree"), 2.0);
  EXPECT_EQ(obs::JsonlNumberField(summary, "sum_p"), 1.25);
  // Bucket 0 = isolated, bucket 1 = degree 1, bucket 2 = degrees 2..3.
  EXPECT_NE(summary.find("\"deg_hist_log2\":[0,2,2]"), std::string::npos)
      << summary;
}

TEST(IoTest, MissingFileIsIoError) {
  const Result<UncertainGraph> g =
      ReadEdgeList("/nonexistent/chameleon.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace chameleon::graph
