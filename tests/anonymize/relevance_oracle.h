#ifndef CHAMELEON_TESTS_ANONYMIZE_RELEVANCE_ORACLE_H_
#define CHAMELEON_TESTS_ANONYMIZE_RELEVANCE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/graph/union_find.h"
#include "chameleon/obs/convergence.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/stats.h"

/// \file relevance_oracle.h
/// The reused-sampling relevance estimator as it was before worlds were
/// sampled four at a time, kept only as a test oracle: every world drawn
/// alone with one `UniformDouble() < p` coin per edge, all present edges
/// united, every vertex's root and size flattened, and every absent edge
/// swept with its own absent-count increment. Serial, one tally; the
/// convergence checkpoints and the float finalisation are those of
/// EstimateRelevance, so the two agree bit for bit. The tally also keeps
/// 128-bit δ² sums (δ ≤ (|V|/2)², so δ² outgrows 64 bits past
/// |V| ≈ 2¹⁷), from which the oracle gives each estimate's variance:
/// the 5σ cross-validation against the naive re-sampler needs it, and
/// the production tally does not keep it.

namespace chameleon::anonymize {

inline std::uint64_t OraclePerWorldSeed(std::uint64_t seed,
                                        std::uint64_t world) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (world + 1));
  return SplitMix64(state);
}

struct OracleTally {
  std::vector<std::uint64_t> delta_sum;
  std::vector<unsigned __int128> delta_sq_sum;
  std::vector<std::uint32_t> absent;
};

/// One world: coins, unions, flatten, clear-bit sweep. Returns Σ_e δ_e.
inline std::uint64_t OracleTallyWorld(const graph::UncertainGraph& graph,
                                      std::uint64_t world_seed,
                                      graph::UnionFind& dsu, BitVector& mask,
                                      OracleTally& tally) {
  const auto& edges = graph.edges();
  Rng rng(world_seed);
  mask.ClearAll();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (rng.UniformDouble() < edges[e].p) mask.Set(e);
  }
  dsu.Reset();
  mask.ForEachSet([&](std::size_t e) { dsu.Union(edges[e].u, edges[e].v); });
  std::vector<NodeId> root(graph.num_nodes());
  std::vector<NodeId> size(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    root[v] = dsu.Find(v);
    size[v] = dsu.ComponentSize(root[v]);
  }
  std::uint64_t mass = 0;
  mask.ForEachClear([&](std::size_t e) {
    ++tally.absent[e];
    const NodeId u = edges[e].u;
    const NodeId v = edges[e].v;
    if (root[u] == root[v]) return;
    const std::uint64_t delta = std::uint64_t{size[u]} * size[v];
    tally.delta_sum[e] += delta;
    tally.delta_sq_sum[e] += static_cast<unsigned __int128>(delta) * delta;
    mass += delta;
  });
  return mass;
}

/// EstimateRelevance's result fields (everything but wall_ms), computed
/// the old way, with each ERR^e's variance (sample variance / N_e; 0
/// when N_e < 2).
inline EdgeRelevanceWithVariance OracleEstimateRelevance(
    const graph::UncertainGraph& graph, const RelevanceOptions& options) {
  const std::size_t num_edges = graph.num_edges();
  EdgeRelevanceWithVariance out;
  out.err.assign(num_edges, 0.0);
  out.err_variance.assign(num_edges, 0.0);
  out.absent_worlds.assign(num_edges, 0);
  OracleTally tally;
  tally.delta_sum.assign(num_edges, 0);
  tally.delta_sq_sum.assign(num_edges, 0);
  tally.absent.assign(num_edges, 0);
  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(num_edges);
  RunningStats world_mass;

  const std::size_t min_worlds =
      std::max<std::size_t>(1, std::min(options.min_worlds, options.worlds));
  std::size_t done = 0;
  std::size_t next_checkpoint = min_worlds;
  while (done < options.worlds) {
    const std::size_t round_end = std::min(options.worlds, next_checkpoint);
    for (std::size_t w = done; w < round_end; ++w) {
      const std::uint64_t mass = OracleTallyWorld(
          graph, OraclePerWorldSeed(options.seed, w), dsu, mask, tally);
      world_mass.Add(static_cast<double>(mass));
    }
    done = round_end;
    next_checkpoint = round_end * 2;

    double err_sum = 0.0;
    out.max_err = 0.0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      const std::uint32_t n = tally.absent[e];
      out.absent_worlds[e] = n;
      if (n == 0) {
        out.err[e] = 0.0;
        out.err_variance[e] = 0.0;
        continue;
      }
      const double mean = static_cast<double>(tally.delta_sum[e]) / n;
      out.err[e] = mean;
      if (n >= 2) {
        const double sq = static_cast<double>(tally.delta_sq_sum[e]);
        const double var = std::max(0.0, (sq - n * mean * mean) / (n - 1));
        out.err_variance[e] = var / n;
      } else {
        out.err_variance[e] = 0.0;
      }
      err_sum += mean;
      out.max_err = std::max(out.max_err, mean);
    }
    out.mean_err =
        num_edges == 0 ? 0.0 : err_sum / static_cast<double>(num_edges);
    out.mean_world_mass = world_mass.mean();

    const double hw = obs::NormalCiHalfwidth(world_mass.variance(),
                                             world_mass.count(), 1.96);
    const double mean_mass = world_mass.mean();
    const double rel_err = mean_mass == 0.0 ? 0.0 : hw / std::abs(mean_mass);
    const bool converged = options.max_rel_err > 0.0 && done >= min_worlds &&
                           mean_mass != 0.0 &&
                           rel_err <= options.max_rel_err;
    out.stopped_early = converged && done < options.worlds;
    if (converged) break;
  }
  out.worlds = done;
  out.vertex_err.assign(graph.num_nodes(), 0.0);
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < num_edges; ++e) {
    out.vertex_err[edges[e].u] += out.err[e];
    out.vertex_err[edges[e].v] += out.err[e];
  }
  return out;
}

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_TESTS_ANONYMIZE_RELEVANCE_ORACLE_H_
