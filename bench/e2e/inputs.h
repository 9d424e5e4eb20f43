#ifndef CHAMELEON_BENCH_E2E_INPUTS_H_
#define CHAMELEON_BENCH_E2E_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/util/status.h"

/// \file inputs.h
/// The benchmark's inputs and rulers: seeded graph generators, an
/// edge-list reader, and the two utility measures (noise L1 and the
/// coupled-world reliability discrepancy Δ). All randomness comes from
/// common.h's splitmix64, and nothing here calls the library's graph,
/// rng or reliability code.

namespace chameleon::bench_e2e {

struct Edge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double p = 0.0;
};

/// An uncertain edge list with u < v on every edge, sorted by (u, v).
struct EdgeList {
  std::uint32_t nodes = 0;
  std::vector<Edge> edges;
};

enum class GraphShape {
  /// G(n, m): m distinct uniform pairs.
  kErdosRenyi,
  /// Chung–Lu: endpoints drawn with weight (i + 1)^(−1/(γ−1)), giving a
  /// power-law expected degree sequence with exponent γ.
  kChungLu,
};

struct GraphSpec {
  GraphShape shape = GraphShape::kErdosRenyi;
  std::uint32_t nodes = 0;
  std::size_t edges = 0;
  double gamma = 2.5;
  /// Edge probabilities are uniform in [p_lo, p_hi], rounded to 6 digits.
  double p_lo = 0.2;
  double p_hi = 0.9;
};

/// Deterministic in (spec, seed): no self-loops, no duplicate pairs.
EdgeList GenerateGraph(const GraphSpec& spec, std::uint64_t seed);

/// The `# nodes <n>` header plus one `u v p` line per edge, the format
/// chameleon_anonymize reads.
std::string FormatEdgeList(const EdgeList& list);

/// Reads the same format. Rejects malformed lines, self-loops and
/// duplicate pairs; keeps probabilities as written (range checks are the
/// caller's). Edges come back canonical and sorted.
Result<EdgeList> ParseEdgeListText(std::string_view text);

/// Mean |p̃ − p| over the union of both edge sets, an edge missing from
/// one side counting as p = 0 there. 0 for two empty lists.
double NoiseL1(const EdgeList& original, const EdgeList& published);

struct ReliabilityComparison {
  /// Mean over the sampled pairs of |R_uv(a) − R_uv(b)|.
  double delta = 0.0;
  /// Mean over the sampled pairs of R_uv(a).
  double mean_reliability_a = 0.0;
};

/// Two-terminal reliability R_uv = P[u and v connected], estimated for
/// `pairs` seeded vertex pairs (u ≠ v) over `worlds` sampled worlds.
/// Edge (u, v) exists in world w iff hash(seed, w, u, v) < p, so both
/// graphs see the same coins and their difference carries no sampling
/// noise from unrelated edges. Requires at least two nodes.
ReliabilityComparison CompareReliability(const EdgeList& a, const EdgeList& b,
                                         std::uint64_t seed,
                                         std::size_t pairs = 2000,
                                         std::size_t worlds = 256);

}  // namespace chameleon::bench_e2e

#endif  // CHAMELEON_BENCH_E2E_INPUTS_H_
