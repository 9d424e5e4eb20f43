#include "chameleon/graph/io.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/generators.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/util/rng.h"
#include "graph/io_blocks.h"

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

std::string FileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The names in `dir`.
std::vector<std::string> Entries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

/// io.h's format, line by line: the header, then "u v p" with every
/// number in std::to_chars' shortest form.
std::string ExpectedText(const UncertainGraph& graph) {
  const auto number = [](auto x) {
    char buffer[32];
    return std::string(buffer, std::to_chars(buffer, buffer + 32, x).ptr);
  };
  std::string text =
      "# chameleon uncertain graph\n# nodes " + number(graph.num_nodes()) +
      "\n";
  for (const UncertainEdge& e : graph.edges()) {
    text += number(e.u) + " " + number(e.v) + " " + number(e.p) + "\n";
  }
  return text;
}

UncertainGraph SeededGraph(std::int64_t nodes, double avg_degree) {
  Rng rng(2018);
  return RandomGraph({.nodes = nodes, .avg_degree = avg_degree}, rng)
      .value();
}

TEST(IoTest, WritesTheSameBytesAtAnyWorkerCount) {
  // An empty graph, one smaller than a write block and one of three
  // blocks (40k edges against 16,384 a block), at the block size
  // WriteEdgeList uses and at blocks of 1 and 7 edges.
  const std::string path = testing::TempDir() + "/chameleon_io_workers.edges";
  const UncertainGraph graphs[] = {UncertainGraph(), SeededGraph(200, 4.0),
                                   SeededGraph(20000, 4.0)};
  ASSERT_GT(graphs[2].num_edges(), 2 * internal::kWriteBlockEdges);
  for (const UncertainGraph& graph : graphs) {
    const std::string want = ExpectedText(graph);
    for (const std::size_t block_edges :
         {internal::kWriteBlockEdges, std::size_t{1}, std::size_t{7}}) {
      for (const int workers : {1, 2, 3, 8}) {
        SCOPED_TRACE(testing::Message()
                     << graph.num_edges() << " edges, " << block_edges
                     << "-edge blocks, " << workers << " workers");
        ASSERT_TRUE(internal::WriteEdgeListBlocks(graph, path, workers,
                                                  block_edges)
                        .ok());
        EXPECT_TRUE(FileText(path) == want);
      }
    }
    ASSERT_TRUE(WriteEdgeList(graph, path, 2).ok());
    EXPECT_TRUE(FileText(path) == want);
  }
  std::remove(path.c_str());
}

/// Runs WriteEdgeList of `graph` to `path` on `threads` workers in a
/// child whose files may not grow past `max_bytes` (SIGXFSZ ignored, so
/// the write past it fails with EFBIG); the child exits 0 when the call
/// returned an IoError.
bool ChildWriteFailsPast(const UncertainGraph& graph, const std::string& path,
                         int threads, rlim_t max_bytes) {
  const pid_t child = fork();
  if (child == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{max_bytes, max_bytes};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(2);
    const Status written = WriteEdgeList(graph, path, threads);
    _exit(written.code() == StatusCode::kIoError ? 0 : 1);
  }
  int status = 0;
  if (child < 0 || waitpid(child, &status, 0) != child) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(IoTest, FailedWriteLeavesTheTargetAsItWas) {
  // 20k nodes and 100k edges, ~2.8 MB written, cut off at 99,991 bytes:
  // written in place, the cut file would read back as a smaller graph.
  const UncertainGraph graph = SeededGraph(20000, 10.0);
  const std::string dir = testing::TempDir() + "/chameleon_io_failed_write";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/published.edges";
  const std::string earlier = "# nodes 2\n0 1 0.5\n";
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    std::ofstream(path, std::ios::binary) << earlier;
    ASSERT_TRUE(ChildWriteFailsPast(graph, path, threads, 99991));
    EXPECT_EQ(FileText(path), earlier);
    EXPECT_EQ(Entries(dir), std::vector<std::string>{"published.edges"});
  }
  // With no earlier file, nothing is left at the target or beside it.
  std::filesystem::remove(path);
  ASSERT_TRUE(ChildWriteFailsPast(graph, path, 2, 99991));
  EXPECT_TRUE(Entries(dir).empty());
  // Without the limit the same write replaces the earlier file whole.
  std::ofstream(path, std::ios::binary) << earlier;
  ASSERT_TRUE(WriteEdgeList(graph, path, 2).ok());
  EXPECT_TRUE(FileText(path) == ExpectedText(graph));
  EXPECT_EQ(Entries(dir), std::vector<std::string>{"published.edges"});
  std::filesystem::remove_all(dir);
}

TEST(IoTest, WriteToAMissingDirectoryIsIoError) {
  UncertainGraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  const Result<UncertainGraph> graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const Status written =
      WriteEdgeList(*graph, "/nonexistent/chameleon.edges", 2);
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  EXPECT_EQ(written.message(),
            "cannot open /nonexistent/chameleon.edges for writing");
}

TEST(IoTest, MissingFileIsIoError) {
  const Result<UncertainGraph> g =
      ReadEdgeList("/nonexistent/chameleon.edges");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace chameleon::graph
