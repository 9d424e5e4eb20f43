// ConvergenceTracker unit tests plus the fixed-seed early-stop
// acceptance check: a small reliability run with --max_rel_err-style
// options must stop early and leave >= 3 estimator_progress records with
// strictly shrinking CI half-widths.

#include "chameleon/obs/convergence.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/reliability/reliability.h"

namespace chameleon::obs {
namespace {

constexpr double kZ95 = 1.96;

TEST(CiHalfwidthTest, NormalHandValue) {
  // z * sqrt(variance / n) = 1.96 * sqrt(4 / 400) = 0.196.
  EXPECT_DOUBLE_EQ(NormalCiHalfwidth(4.0, 400, kZ95), 0.196);
  EXPECT_DOUBLE_EQ(NormalCiHalfwidth(4.0, 0, kZ95), 0.0);
  EXPECT_DOUBLE_EQ(NormalCiHalfwidth(0.0, 100, kZ95), 0.0);
}

TEST(CiHalfwidthTest, WilsonHandValue) {
  // p = 0.5, n = 100: hw = z*sqrt(p(1-p)/n + z^2/4n^2) / (1 + z^2/n).
  EXPECT_NEAR(WilsonCiHalfwidth(50, 100, kZ95), 0.096170, 1e-5);
  EXPECT_DOUBLE_EQ(WilsonCiHalfwidth(0, 0, kZ95), 0.0);
}

TEST(CiHalfwidthTest, WilsonNonDegenerateAtExtremes) {
  // Unlike the Wald interval, Wilson stays positive at p = 0 and p = 1 —
  // a high-reliability estimate with zero observed failures still has
  // honest uncertainty.
  EXPECT_GT(WilsonCiHalfwidth(0, 100, kZ95), 0.0);
  EXPECT_GT(WilsonCiHalfwidth(100, 100, kZ95), 0.0);
  // And it shrinks with n.
  EXPECT_LT(WilsonCiHalfwidth(0, 1000, kZ95), WilsonCiHalfwidth(0, 100, kZ95));
}

ConvergenceOptions QuietOptions() {
  ConvergenceOptions options;
  options.use_global_sink = false;
  return options;
}

TEST(ConvergenceTrackerTest, ShouldStopRespectsMinSamples) {
  ConvergenceOptions options = QuietOptions();
  options.target_ci_halfwidth = 10.0;  // trivially satisfiable
  options.min_samples = 50;
  options.bernoulli = true;
  ConvergenceTracker tracker("test/min_samples", options);
  for (int i = 0; i < 49; ++i) {
    tracker.AddBernoulli(i % 2 == 0);
    EXPECT_FALSE(tracker.ShouldStop()) << "stopped before min_samples";
  }
  tracker.AddBernoulli(true);
  EXPECT_TRUE(tracker.ShouldStop());
}

TEST(ConvergenceTrackerTest, ShouldStopOnAbsoluteTarget) {
  ConvergenceOptions options = QuietOptions();
  options.target_ci_halfwidth = 0.01;
  options.min_samples = 2;
  ConvergenceTracker tracker("test/target", options);
  tracker.Add(5.0);
  EXPECT_FALSE(tracker.ShouldStop());  // n < 2
  tracker.Add(5.0);  // zero variance -> zero half-width
  EXPECT_TRUE(tracker.ShouldStop());
}

TEST(ConvergenceTrackerTest, RelativeErrorRuleNeedsNonzeroMean) {
  ConvergenceOptions options = QuietOptions();
  options.max_rel_err = 0.5;
  options.min_samples = 2;
  ConvergenceTracker tracker("test/rel_err_zero_mean", options);
  tracker.Add(1.0);
  tracker.Add(-1.0);
  // Zero mean: relative error is undefined, the rule must not fire.
  EXPECT_FALSE(tracker.ShouldStop());

  ConvergenceTracker converged("test/rel_err", options);
  converged.Add(4.0);
  converged.Add(4.0);
  EXPECT_TRUE(converged.ShouldStop());
}

TEST(ConvergenceTrackerTest, NoRuleNeverStops) {
  ConvergenceTracker tracker("test/no_rule", QuietOptions());
  EXPECT_FALSE(tracker.has_stopping_rule());
  for (int i = 0; i < 500; ++i) tracker.Add(1.0);
  EXPECT_FALSE(tracker.ShouldStop());
}

TEST(ConvergenceTrackerTest, CheckpointsEmitShrinkingHalfwidths) {
  MemorySink sink;
  ConvergenceOptions options = QuietOptions();
  options.sink = &sink;
  options.min_samples = 16;
  options.bernoulli = true;
  // Isolate checkpoint-driven emission from the time throttle.
  options.min_emit_interval_nanos = ~std::uint64_t{0} / 2;
  {
    ConvergenceTracker tracker("test/checkpoints", options);
    for (int i = 0; i < 600; ++i) tracker.AddBernoulli(i % 2 == 0);
    tracker.Finish(/*stopped_early=*/false);
    EXPECT_EQ(tracker.emit_count(), sink.lines().size());
  }

  // Geometric checkpoints at 16, 32, 64, 128, 256, 512 plus the final
  // record from Finish().
  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 7u);

  double prev_samples = 0.0;
  double prev_hw = 2.0;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(JsonlStringField(line, "type"), "estimator_progress");
    EXPECT_EQ(JsonlStringField(line, "label"), "test/checkpoints");
    for (const char* field :
         {"t_ms", "samples", "mean", "stddev", "ci_halfwidth", "rel_err",
          "rate_per_s"}) {
      EXPECT_TRUE(JsonlNumberField(line, field).has_value())
          << field << " missing in " << line;
    }
    const double samples = *JsonlNumberField(line, "samples");
    const double hw = *JsonlNumberField(line, "ci_halfwidth");
    EXPECT_GT(samples, prev_samples) << "samples not monotone: " << line;
    EXPECT_LT(hw, prev_hw) << "half-width did not shrink: " << line;
    prev_samples = samples;
    prev_hw = hw;
  }
  EXPECT_DOUBLE_EQ(*JsonlNumberField(lines.front(), "samples"), 16.0);
  EXPECT_DOUBLE_EQ(*JsonlNumberField(lines.front(), "mean"), 0.5);

  // Only the Finish() record carries the stopping decision.
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("\"final\""), std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"final\":true"), std::string::npos);
  EXPECT_NE(lines.back().find("\"stopped_early\":false"), std::string::npos);
  EXPECT_DOUBLE_EQ(*JsonlNumberField(lines.back(), "samples"), 600.0);
}

TEST(ConvergenceTrackerTest, ThrottleSuppressesMidRunRecords) {
  MemorySink sink;
  ConvergenceOptions options = QuietOptions();
  options.sink = &sink;
  options.min_samples = ~std::uint64_t{0} / 2;  // checkpoint never reached
  options.min_emit_interval_nanos = ~std::uint64_t{0} / 2;
  ConvergenceTracker tracker("test/throttle", options);
  for (int i = 0; i < 10000; ++i) tracker.Add(static_cast<double>(i));
  EXPECT_EQ(tracker.emit_count(), 0u);
  tracker.Finish(/*stopped_early=*/true);
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_NE(sink.lines().front().find("\"stopped_early\":true"),
            std::string::npos);
  // Finish is idempotent: no second final record.
  tracker.Finish(/*stopped_early=*/false);
  EXPECT_EQ(sink.lines().size(), 1u);
  const ConvergenceSnapshot snapshot = tracker.Snapshot();
  EXPECT_TRUE(snapshot.finished);
  EXPECT_TRUE(snapshot.stopped_early);
}

// The ISSUE acceptance criterion in test form: a fixed-seed two-node
// estimate with a relative-error rule stops early and the JSONL stream
// holds >= 3 estimator_progress records with strictly shrinking
// half-widths.
TEST(ConvergenceIntegrationTest, TwoNodeRunStopsEarlyWithShrinkingRecords) {
  const std::string path = testing::TempDir() + "/convergence_accept.jsonl";
  std::remove(path.c_str());

  ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  ASSERT_TRUE(InitObservability(obs_options).ok());

  graph::UncertainGraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  Result<graph::UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());

  rel::MonteCarloOptions mc;
  mc.worlds = 200000;
  mc.heartbeat = false;
  mc.max_rel_err = 0.05;
  mc.min_samples = 100;
  Rng rng(2018);
  const Result<rel::ReliabilityEstimate> estimate =
      rel::EstimateTwoTerminalReliability(*g, 0, 1, mc, rng);
  ShutdownObservability();

  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->stopped_early);
  EXPECT_LT(estimate->worlds, mc.worlds);
  EXPECT_GE(estimate->worlds, mc.min_samples);
  EXPECT_NEAR(estimate->reliability, 0.5, 0.1);
  EXPECT_LE(estimate->ci_halfwidth,
            mc.max_rel_err * estimate->reliability + 1e-12);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> records;
  std::size_t finals = 0;
  for (std::string line; std::getline(in, line);) {
    if (JsonlStringField(line, "type") != "estimator_progress") continue;
    ASSERT_EQ(JsonlStringField(line, "label"), "reliability/two_terminal");
    records.push_back(line);
    if (line.find("\"final\":true") != std::string::npos) ++finals;
  }
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(finals, 1u);
  // The final record carries the stopping decision.
  EXPECT_NE(records.back().find("\"final\":true"), std::string::npos);
  EXPECT_NE(records.back().find("\"stopped_early\":true"), std::string::npos);
  double prev_samples = 0.0;
  double prev_hw = 2.0;
  for (const std::string& record : records) {
    const double samples = *JsonlNumberField(record, "samples");
    const double hw = *JsonlNumberField(record, "ci_halfwidth");
    EXPECT_GT(samples, prev_samples) << record;
    EXPECT_LT(hw, prev_hw) << "half-width did not shrink: " << record;
    prev_samples = samples;
    prev_hw = hw;
  }
  EXPECT_DOUBLE_EQ(prev_samples, static_cast<double>(estimate->worlds));

  std::remove(path.c_str());
}

}  // namespace
}  // namespace chameleon::obs
