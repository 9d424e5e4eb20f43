#ifndef CHAMELEON_RELIABILITY_RELIABILITY_H_
#define CHAMELEON_RELIABILITY_RELIABILITY_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file reliability.h
/// Monte Carlo reliability estimation (paper Definitions 1-2): the
/// probability that two terminals are connected in a sampled possible
/// world, and the expected number of connected node pairs — the quantity
/// whose sensitivity to edge probabilities defines ERR (Definition 5).
/// Every estimator samples up to `options.worlds` possible worlds and
/// runs union-find per world; phase structure, per-world counters, and
/// `estimator_progress` convergence records are emitted through
/// chameleon/obs. When a stopping rule is configured (target CI
/// half-width or relative error), an estimator may stop early once its
/// confidence interval is tight enough — the Estimate* entry points
/// report the worlds actually sampled and the final half-width.

namespace chameleon::rel {

struct MonteCarloOptions {
  /// Maximum possible worlds per estimate (paper default: 1000).
  std::size_t worlds = 1000;
  /// Emit a throttled progress heartbeat for the world loop.
  bool heartbeat = true;
  /// Opt-in early stop: halt once the 95% CI half-width reaches this
  /// absolute value (0 = rule off; must be finite and >= 0).
  double target_ci_halfwidth = 0.0;
  /// Opt-in early stop: halt once half-width <= max_rel_err * |mean|
  /// (0 = rule off; must be finite and >= 0).
  double max_rel_err = 0.0;
  /// No stopping decision before this many worlds.
  std::size_t min_samples = 100;
};

/// Result of an adaptive reliability estimate.
struct ReliabilityEstimate {
  double reliability = 0.0;
  /// Worlds actually sampled (== options.worlds unless stopped early).
  std::size_t worlds = 0;
  /// Wilson 95% CI half-width of the reliability estimate.
  double ci_halfwidth = 0.0;
  bool stopped_early = false;
};

/// P[s ~ t]: fraction of sampled worlds where s and t are connected.
/// InvalidArgument when a terminal is out of range, worlds == 0 or a
/// stopping rule is NaN, infinite or negative (every estimator checks
/// its options the same way).
Result<ReliabilityEstimate> EstimateTwoTerminalReliability(
    const graph::UncertainGraph& graph, NodeId source, NodeId target,
    const MonteCarloOptions& options, Rng& rng);

/// Convenience wrapper returning only the point estimate.
Result<double> TwoTerminalReliability(const graph::UncertainGraph& graph,
                                      NodeId source, NodeId target,
                                      const MonteCarloOptions& options,
                                      Rng& rng);

/// Result of an adaptive pair-set estimate.
struct PairSetEstimate {
  /// Per-pair reliability, aligned with the input pairs.
  std::vector<double> reliability;
  std::size_t worlds = 0;
  /// Largest per-pair Wilson 95% CI half-width at stop.
  double max_ci_halfwidth = 0.0;
  bool stopped_early = false;
};

/// Reliability of many pairs from a shared world sample (the reused-
/// sampling idea of Algorithm 2: all pairs are evaluated against the
/// same N worlds, so cost is N world-samples, not N * pairs). The
/// stopping rules apply to the worst (widest-CI) pair, so every pair
/// meets the requested precision.
Result<PairSetEstimate> EstimatePairSetReliability(
    const graph::UncertainGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const MonteCarloOptions& options, Rng& rng);

/// Convenience wrapper returning only the per-pair point estimates.
Result<std::vector<double>> PairSetReliability(
    const graph::UncertainGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const MonteCarloOptions& options, Rng& rng);

struct ConnectedPairsEstimate {
  /// Mean over worlds of the number of connected pairs.
  double expected_pairs = 0.0;
  /// Sample standard deviation across worlds.
  double stddev = 0.0;
  std::size_t worlds = 0;
  /// Normal 95% CI half-width of the mean.
  double ci_halfwidth = 0.0;
  bool stopped_early = false;
};

/// E[#connected pairs] — the paper's R(G) (Definition 5 context).
Result<ConnectedPairsEstimate> ExpectedConnectedPairs(
    const graph::UncertainGraph& graph, const MonteCarloOptions& options,
    Rng& rng);

}  // namespace chameleon::rel

#endif  // CHAMELEON_RELIABILITY_RELIABILITY_H_
