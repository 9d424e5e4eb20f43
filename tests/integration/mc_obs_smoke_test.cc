// End-to-end smoke test: a 1k-world Monte Carlo run with the JSONL sink
// enabled must produce valid JSONL containing the expected nested phase
// spans and a final run summary whose metrics are the counters alone.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/reliability/reliability.h"

namespace chameleon {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

UncertainGraph MakeRing(NodeId n, double p) {
  UncertainGraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(builder.AddEdge(u, (u + 1) % n, p).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(McObsSmokeTest, OneThousandWorldRunEmitsPhaseSpans) {
  const std::string path = testing::TempDir() + "/chameleon_smoke.jsonl";
  std::remove(path.c_str());

  obs::ObsOptions options;
  options.metrics_out = path;
  options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(options).ok());
  ASSERT_TRUE(obs::Enabled());

  const UncertainGraph g = MakeRing(16, 0.7);
  Rng rng(2024);
  rel::MonteCarloOptions mc;
  mc.worlds = 1000;
  mc.heartbeat = true;

  const Result<double> two_terminal =
      rel::TwoTerminalReliability(g, 0, 8, mc, rng);
  ASSERT_TRUE(two_terminal.ok());

  const Result<rel::ConnectedPairsEstimate> pairs =
      rel::ExpectedConnectedPairs(g, mc, rng);
  ASSERT_TRUE(pairs.ok());

  obs::ShutdownObservability();
  EXPECT_FALSE(obs::Enabled());

  // --- Validate the JSONL output. ---
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());

  std::set<std::string> span_paths;
  std::size_t run_summaries = 0;
  for (const std::string& line : lines) {
    // Structurally valid JSONL: one object per line.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const auto type = obs::JsonlStringField(line, "type");
    ASSERT_TRUE(type.has_value()) << line;
    if (*type == "span") {
      const auto span_path = obs::JsonlStringField(line, "path");
      ASSERT_TRUE(span_path.has_value()) << line;
      span_paths.insert(*span_path);
      EXPECT_GE(*obs::JsonlNumberField(line, "dur_ns"), 0.0);
    } else if (*type == "run_summary") {
      ++run_summaries;
      EXPECT_GE(*obs::JsonlNumberField(line, "wall_ms"), 0.0);
      // The stream's records hold every other fact once; the summary's
      // metrics are the registry's counters and nothing else.
      const std::optional<obs::JsonValue> summary = obs::ParseJson(line);
      ASSERT_TRUE(summary.has_value()) << line;
      const obs::JsonValue* metrics =
          summary->Get("metrics", obs::JsonValue::Kind::kObject);
      ASSERT_NE(metrics, nullptr) << line;
      ASSERT_EQ(metrics->members().size(), 1u) << line;
      EXPECT_EQ(metrics->members().front().first, "counters");
    }
  }

  EXPECT_EQ(run_summaries, 1u);

  // Nested phase spans: the world-sampling loop appears as a child of
  // each estimator phase.
  EXPECT_TRUE(span_paths.count("reliability/two_terminal"));
  EXPECT_TRUE(span_paths.count("reliability/two_terminal/sample_worlds"));
  EXPECT_TRUE(span_paths.count("reliability/connected_pairs"));
  EXPECT_TRUE(span_paths.count("reliability/connected_pairs/sample_worlds"));

  // The final summary carries the per-world counters (2k worlds total).
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().TakeSnapshot();
  ASSERT_NE(snapshot.FindCounter("reliability/sampler/worlds"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("reliability/sampler/worlds")->value, 2000u);

  std::remove(path.c_str());
}

TEST(McObsSmokeTest, DisabledRunsEmitNothing) {
  obs::GlobalMetrics().Reset();
  ASSERT_FALSE(obs::Enabled());
  const UncertainGraph g = MakeRing(8, 0.5);
  Rng rng(7);
  rel::MonteCarloOptions mc;
  mc.worlds = 100;
  mc.heartbeat = false;
  ASSERT_TRUE(rel::TwoTerminalReliability(g, 0, 4, mc, rng).ok());
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().TakeSnapshot();
  const obs::CounterSample* worlds =
      snapshot.FindCounter("reliability/sampler/worlds");
  if (worlds != nullptr) {
    EXPECT_EQ(worlds->value, 0u);
  }
}

TEST(McObsSmokeTest, InitFromEnvironmentVariable) {
  const std::string path = testing::TempDir() + "/chameleon_env.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("CHAMELEON_METRICS", path.c_str(), 1), 0);
  obs::ObsOptions options;  // no explicit path; read_env = true
  ASSERT_TRUE(obs::InitObservability(options).ok());
  EXPECT_TRUE(obs::Enabled());
  obs::ShutdownObservability();
  ASSERT_EQ(unsetenv("CHAMELEON_METRICS"), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, first_line)));
  EXPECT_TRUE(obs::JsonlStringField(first_line, "type").has_value());
  std::remove(path.c_str());
}

TEST(McObsSmokeTest, BadSinkPathLeavesDisabled) {
  obs::ObsOptions options;
  options.metrics_out = "/nonexistent/dir/metrics.jsonl";
  options.read_env = false;
  EXPECT_FALSE(obs::InitObservability(options).ok());
  EXPECT_FALSE(obs::Enabled());
}

}  // namespace
}  // namespace chameleon
