#include "chameleon/reliability/reliability.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "chameleon/graph/union_find.h"
#include "chameleon/obs/convergence.h"
#include "chameleon/obs/obs.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/string_util.h"

namespace chameleon::rel {
namespace {

/// Normal quantile for the 95% confidence intervals every estimator
/// reports (matches ConvergenceOptions' default).
constexpr double kZ95 = 1.96;

bool HasStoppingRule(const MonteCarloOptions& options) {
  return options.target_ci_halfwidth > 0.0 || options.max_rel_err > 0.0;
}

/// A convergence tracker is constructed when a stopping rule needs one or
/// when observability is live (estimator_progress telemetry); a dormant
/// fixed-count run skips the per-world tracker work entirely.
std::optional<obs::ConvergenceTracker> MaybeMakeTracker(
    std::string_view label, const MonteCarloOptions& options, bool bernoulli,
    bool with_stopping_rules) {
  if (!HasStoppingRule(options) && !obs::Enabled()) return std::nullopt;
  obs::ConvergenceOptions tracker_options;
  if (with_stopping_rules) {
    tracker_options.target_ci_halfwidth = options.target_ci_halfwidth;
    tracker_options.max_rel_err = options.max_rel_err;
  }
  tracker_options.min_samples = options.min_samples;
  tracker_options.z = kZ95;
  tracker_options.bernoulli = bernoulli;
  return std::make_optional<obs::ConvergenceTracker>(label, tracker_options);
}

Status ValidateTerminals(const graph::UncertainGraph& graph, NodeId source,
                         NodeId target) {
  if (source >= graph.num_nodes() || target >= graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("terminal pair (%u, %u) out of range for %u nodes", source,
                  target, graph.num_nodes()));
  }
  return Status::OK();
}

Status ValidateOptions(const MonteCarloOptions& options) {
  if (options.worlds == 0) {
    return Status::InvalidArgument("worlds must be positive");
  }
  // NaN or a negative value would silently turn its rule off, and +inf
  // would stop at min_samples whatever the interval.
  for (const auto& [name, value] :
       {std::pair{"target_ci_halfwidth", options.target_ci_halfwidth},
        std::pair{"max_rel_err", options.max_rel_err}}) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return Status::InvalidArgument(
          StrFormat("%s = %g must be finite and >= 0", name, value));
    }
  }
  return Status::OK();
}

}  // namespace

Result<ReliabilityEstimate> EstimateTwoTerminalReliability(
    const graph::UncertainGraph& graph, NodeId source, NodeId target,
    const MonteCarloOptions& options, Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateTerminals(graph, source, target));
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));

  CHOBS_SPAN(span, "reliability/two_terminal");
  const WorldSampler sampler(graph);
  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(graph.num_edges());
  obs::ProgressHeartbeat progress(
      "reliability/two_terminal/sample_worlds",
      options.heartbeat ? options.worlds : 0,
      obs::ProgressHeartbeat::Options{
          .log = options.heartbeat,
          .sink = nullptr,
          .use_global_sink = options.heartbeat});
  std::optional<obs::ConvergenceTracker> tracker =
      MaybeMakeTracker("reliability/two_terminal", options,
                       /*bernoulli=*/true, /*with_stopping_rules=*/true);
  const bool adaptive = HasStoppingRule(options);

  std::size_t hits = 0;
  std::size_t sampled = 0;
  bool stopped_early = false;
  {
    CHOBS_SPAN(loop_span, "sample_worlds");
    for (std::size_t w = 0; w < options.worlds; ++w) {
      sampler.SampleMask(rng, mask);
      UniteWorld(graph, mask, dsu);
      const bool connected = dsu.Connected(source, target);
      if (connected) ++hits;
      sampled = w + 1;
      progress.Tick(sampled);
      if (tracker.has_value()) {
        tracker->AddBernoulli(connected);
        if (adaptive && sampled < options.worlds && tracker->ShouldStop()) {
          stopped_early = true;
          break;
        }
      }
    }
    loop_span.AddCount("worlds", sampled);
    loop_span.AddCount("hits", hits);
  }
  progress.Finish();
  if (tracker.has_value()) tracker->Finish(stopped_early);

  ReliabilityEstimate estimate;
  estimate.reliability =
      static_cast<double>(hits) / static_cast<double>(sampled);
  estimate.worlds = sampled;
  estimate.ci_halfwidth = obs::WilsonCiHalfwidth(hits, sampled, kZ95);
  estimate.stopped_early = stopped_early;
  span.AddCount("worlds", sampled);
  CHOBS_COUNT("reliability/two_terminal/estimates", 1);
  return estimate;
}

Result<double> TwoTerminalReliability(const graph::UncertainGraph& graph,
                                      NodeId source, NodeId target,
                                      const MonteCarloOptions& options,
                                      Rng& rng) {
  Result<ReliabilityEstimate> estimate =
      EstimateTwoTerminalReliability(graph, source, target, options, rng);
  if (!estimate.ok()) return estimate.status();
  return estimate->reliability;
}

Result<PairSetEstimate> EstimatePairSetReliability(
    const graph::UncertainGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const MonteCarloOptions& options, Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  for (const auto& [s, t] : pairs) {
    CHAMELEON_RETURN_IF_ERROR(ValidateTerminals(graph, s, t));
  }

  CHOBS_SPAN(span, "reliability/pair_set");
  span.AddCount("pairs", pairs.size());
  const WorldSampler sampler(graph);
  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(graph.num_edges());
  std::vector<std::size_t> hits(pairs.size(), 0);
  obs::ProgressHeartbeat progress(
      "reliability/pair_set/sample_worlds",
      options.heartbeat ? options.worlds : 0,
      obs::ProgressHeartbeat::Options{
          .log = options.heartbeat,
          .sink = nullptr,
          .use_global_sink = options.heartbeat});
  // The tracker follows the per-world fraction of connected pairs
  // (telemetry); stopping is decided below against the *widest* per-pair
  // Wilson interval so the precision guarantee holds for every pair.
  std::optional<obs::ConvergenceTracker> tracker =
      MaybeMakeTracker("reliability/pair_set", options,
                       /*bernoulli=*/false, /*with_stopping_rules=*/false);
  const bool adaptive = HasStoppingRule(options) && !pairs.empty();
  // Per-pair Wilson widths cost O(pairs) to evaluate; amortize the check.
  constexpr std::size_t kStopCheckStride = 16;

  const auto all_pairs_converged = [&](std::size_t n) {
    for (const std::size_t pair_hits : hits) {
      const double hw = obs::WilsonCiHalfwidth(pair_hits, n, kZ95);
      if (options.target_ci_halfwidth > 0.0 &&
          hw <= options.target_ci_halfwidth) {
        continue;
      }
      const double mean =
          static_cast<double>(pair_hits) / static_cast<double>(n);
      if (options.max_rel_err > 0.0 && mean > 0.0 &&
          hw <= options.max_rel_err * mean) {
        continue;
      }
      return false;
    }
    return true;
  };

  std::size_t sampled = 0;
  bool stopped_early = false;
  {
    // Reused sampling: one world serves every pair (Lemma 3's cost
    // argument) — the loop is worlds-major, pairs-minor.
    CHOBS_SPAN(loop_span, "sample_worlds");
    for (std::size_t w = 0; w < options.worlds; ++w) {
      sampler.SampleMask(rng, mask);
      UniteWorld(graph, mask, dsu);
      std::size_t connected = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (dsu.Connected(pairs[i].first, pairs[i].second)) {
          ++hits[i];
          ++connected;
        }
      }
      sampled = w + 1;
      progress.Tick(sampled);
      if (tracker.has_value() && !pairs.empty()) {
        tracker->Add(static_cast<double>(connected) /
                     static_cast<double>(pairs.size()));
      }
      if (adaptive && sampled >= options.min_samples &&
          sampled < options.worlds && sampled % kStopCheckStride == 0 &&
          all_pairs_converged(sampled)) {
        stopped_early = true;
        break;
      }
    }
    loop_span.AddCount("worlds", sampled);
  }
  progress.Finish();
  if (tracker.has_value()) tracker->Finish(stopped_early);

  PairSetEstimate estimate;
  estimate.reliability.assign(pairs.size(), 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    estimate.reliability[i] =
        static_cast<double>(hits[i]) / static_cast<double>(sampled);
    estimate.max_ci_halfwidth =
        std::max(estimate.max_ci_halfwidth,
                 obs::WilsonCiHalfwidth(hits[i], sampled, kZ95));
  }
  estimate.worlds = sampled;
  estimate.stopped_early = stopped_early;
  CHOBS_COUNT("reliability/pair_set/estimates", 1);
  return estimate;
}

Result<std::vector<double>> PairSetReliability(
    const graph::UncertainGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const MonteCarloOptions& options, Rng& rng) {
  Result<PairSetEstimate> estimate =
      EstimatePairSetReliability(graph, pairs, options, rng);
  if (!estimate.ok()) return estimate.status();
  return std::move(estimate->reliability);
}

Result<ConnectedPairsEstimate> ExpectedConnectedPairs(
    const graph::UncertainGraph& graph, const MonteCarloOptions& options,
    Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));

  CHOBS_SPAN(span, "reliability/connected_pairs");
  const WorldSampler sampler(graph);
  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(graph.num_edges());
  RunningStats stats;
  obs::ProgressHeartbeat progress(
      "reliability/connected_pairs/sample_worlds",
      options.heartbeat ? options.worlds : 0,
      obs::ProgressHeartbeat::Options{
          .log = options.heartbeat,
          .sink = nullptr,
          .use_global_sink = options.heartbeat});

  std::optional<obs::ConvergenceTracker> tracker =
      MaybeMakeTracker("reliability/connected_pairs", options,
                       /*bernoulli=*/false, /*with_stopping_rules=*/true);
  const bool adaptive = HasStoppingRule(options);

  std::size_t sampled = 0;
  bool stopped_early = false;
  {
    CHOBS_SPAN(loop_span, "sample_worlds");
    for (std::size_t w = 0; w < options.worlds; ++w) {
      sampler.SampleMask(rng, mask);
      UniteWorld(graph, mask, dsu);
      const double connected = static_cast<double>(dsu.ConnectedPairs());
      stats.Add(connected);
      sampled = w + 1;
      progress.Tick(sampled);
      if (tracker.has_value()) {
        tracker->Add(connected);
        if (adaptive && sampled < options.worlds && tracker->ShouldStop()) {
          stopped_early = true;
          break;
        }
      }
    }
    loop_span.AddCount("worlds", sampled);
  }
  progress.Finish();
  if (tracker.has_value()) tracker->Finish(stopped_early);

  ConnectedPairsEstimate estimate;
  estimate.expected_pairs = stats.mean();
  estimate.stddev = stats.stddev();
  estimate.worlds = sampled;
  estimate.ci_halfwidth =
      obs::NormalCiHalfwidth(stats.variance(), sampled, kZ95);
  estimate.stopped_early = stopped_early;
  span.AddCount("worlds", sampled);
  CHOBS_COUNT("reliability/connected_pairs/estimates", 1);
  return estimate;
}

}  // namespace chameleon::rel
