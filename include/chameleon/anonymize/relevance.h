#ifndef CHAMELEON_ANONYMIZE_RELEVANCE_H_
#define CHAMELEON_ANONYMIZE_RELEVANCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file relevance.h
/// Reliability relevance ERR^e (paper Definition 5, Algorithm 2): the
/// sensitivity of the expected number of connected vertex pairs to edge
/// e's probability,
///   ERR^e = ∂R(G)/∂p(e) = E_{W'}[pairs(W' + e) − pairs(W' − e)],
/// where W' ranges over possible worlds of the *other* edges. Edges with
/// high relevance carry the graph's connectivity structure; Chameleon's
/// GenObf steers perturbation noise away from them.
///
/// The reused-sampling estimator (Lemma 3) shares one pool of N sampled
/// worlds across every edge. For a world W and edge e = (u, v) with u, v
/// in *different* components, e is necessarily absent from W and the
/// delta pairs(W + e) − pairs(W) is exactly |C_u|·|C_v|; when u, v are
/// connected the delta is 0. Because edge coins are independent, the
/// worlds with e absent are a fair sample of W', so averaging the deltas
/// over those worlds (N_e of them) is unbiased. Total cost
/// O(N·α(|V|)·|E|) for all edges simultaneously — versus the naive
/// per-edge re-sampler's O(|E|·N·α(|V|)·|E|), which is kept here as the
/// cross-validation oracle for tests.
///
/// How one world is tallied. Worlds are sampled four at a time, one
/// xoshiro256** stream per uint64 vector lane (rel::WorldSampler::
/// SampleFourMasks: one AVX2 register where the CPU has AVX2, two SSE2
/// registers elsewhere). The present edges are united in edge order
/// until one component is left (rel::UniteWorld). What follows depends
/// on the world:
///  - Connected (the unions stopped early): every δ is 0, so only the
///    absent edges are counted, bit-sliced. A block of n worlds keeps
///    bit_width(n) planes of ⌈|E|/64⌉ words; a connected world adds its
///    complemented mask into them with a ripple carry (the last word's
///    bits past the last edge masked off), and the block adds the planes
///    into its tally once, at its end. Cost: the coins, the unions up to
///    connection, and a few word operations per 64 edges.
///  - Not connected, whether a giant component plus fragments or
///    fragmented: roots and sizes are flattened in O(|V|), and every
///    absent edge is swept, two flattened slots and one count each.
///    Cost: every union, the flatten, and one read per absent edge.
/// Both paths add the same integers: δ depends only on the partition and
/// its sizes, which no union order changes and which the remaining edges
/// cannot change once one component is left, and every absent edge is
/// counted once per world, in the planes or by the sweep. The tallies
/// therefore equal the one-world-at-a-time kernel's bit for bit (tests
/// keep that kernel as an oracle).
///
/// The tally. Each block adds into its own tally of two exact integers
/// per edge, 12 bytes: a uint64 sum of δ and a uint32 absent count N_e.
/// δ ≤ (|V|/2)², so a δ sum over N worlds stays exact while
/// N·|V|² < 2⁶⁶, and N_e ≤ N < 2³². A plane count never carries out of
/// its top plane, since a block of n worlds counts to at most n. The
/// estimate ERR^e = Σδ / N_e is formed from the summed tallies after the
/// last round, and after an earlier round only when a relevance_progress
/// record is written, since those records alone read per-round values.
/// Per-edge variance is not kept: the tests that bound the estimate
/// recompute it from the oracle kernel, which tallies δ² as well.
///
/// Caveat inherited from the estimator: an edge with p(e) = 1 is never
/// absent (N_e = 0), so its relevance is unobservable and reported as 0
/// with zero weight. The driver treats such edges as non-candidates.
///
/// Determinism: every world w draws from its own splitmix-derived stream
/// keyed by (seed, w). Each round of worlds is cut into one contiguous
/// block per granted worker, and each block adds its worlds into its own
/// tally. Integer addition is exact and order-free, so how the worlds
/// were split between workers cannot change any sum; the per-world
/// masses behind the early-stop statistic fold in world order. The
/// result is therefore bit-identical across worker counts.

namespace chameleon::anonymize {

struct RelevanceOptions {
  /// Number of sampled worlds N shared across all edges.
  std::size_t worlds = 200;
  /// Master seed; per-world streams are derived, never shared.
  std::uint64_t seed = 2018;
  /// Worker count for the per-round world sweep (< 1 = hardware).
  int threads = 0;
  /// First convergence checkpoint; later checkpoints double. Rounds are
  /// cut at checkpoints so early stopping stays deterministic.
  std::size_t min_worlds = 32;
  /// Early-stop rule on the per-world total relevance mass: stop when
  /// the 95% CI half-width falls to max_rel_err·|mean| (0 = off).
  double max_rel_err = 0.0;
  /// Emit progress heartbeats to the log.
  bool heartbeat = true;
};

/// Reliability relevance of every edge (plus diagnostics).
struct EdgeRelevance {
  /// ERR^e per edge, aligned with graph.edges().
  std::vector<double> err;
  /// N_e: worlds in which edge e was absent (the usable sample count).
  std::vector<std::uint32_t> absent_worlds;
  /// VRR^v: summed relevance of v's incident edges.
  std::vector<double> vertex_err;
  /// Worlds actually sampled (== options.worlds unless stopped early).
  std::size_t worlds = 0;
  bool stopped_early = false;
  double mean_err = 0.0;
  double max_err = 0.0;
  /// Mean per-world total relevance mass Σ_e delta_e(W) — the
  /// convergence statistic reported in relevance_progress records.
  double mean_world_mass = 0.0;
  double wall_ms = 0.0;
};

/// Reused-sampling estimator (Algorithm 2). Emits an
/// `anonymize/relevance` trace span and `relevance_progress` JSONL
/// records at geometric world-count checkpoints while observability is
/// live. InvalidArgument when options.worlds == 0.
Result<EdgeRelevance> EstimateRelevance(const graph::UncertainGraph& graph,
                                        const RelevanceOptions& options);

/// An estimate with each ERR^e's variance beside it.
struct EdgeRelevanceWithVariance : EdgeRelevance {
  /// Variance of each ERR^e estimate (sample variance / N_e); 0 when
  /// N_e < 2. Sizes the self-scaling Monte Carlo error bound when two
  /// independent estimates are compared.
  std::vector<double> err_variance;
};

/// Naive per-edge re-sampler: for each edge, N fresh worlds of the other
/// edges. O(|E|²·N·α) — the oracle for cross-validating the reused
/// estimator on small graphs (and ablation A1's baseline); never used by
/// the driver.
Result<EdgeRelevanceWithVariance> EstimateRelevanceNaive(
    const graph::UncertainGraph& graph, const RelevanceOptions& options);

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_ANONYMIZE_RELEVANCE_H_
