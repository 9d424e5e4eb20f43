#ifndef CHAMELEON_GRAPH_GENERATORS_H_
#define CHAMELEON_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "chameleon/graph/edge.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file generators.h
/// The seeded random uncertain graph behind the benchmark suites, the
/// overhead gates and the tools' `--nodes`/`--avg_degree` mode: an
/// Erdős–Rényi G(n, m) graph with m = ⌊avg_degree·n/2⌋ distinct pairs,
/// each with an edge probability uniform in [p_min, p_max).

namespace chameleon::graph {

struct RandomGraphOptions {
  /// Node count n. Signed so a tool can pass its flag unconverted: it is
  /// checked against [2, 2³²−1] before any cast.
  std::int64_t nodes = 200;
  double avg_degree = 4.0;
  double p_min = 0.1;
  double p_max = 0.9;
};

/// Draws the edges in draw order. Each attempt draws u, then v, uniformly
/// from [0, n); a self-loop or a pair already drawn is skipped, otherwise
/// p is drawn and the edge {min, max} appended. After 20·m + 100 attempts
/// it stops with the edges it has. Rejects, before drawing anything, n
/// outside [2, 2³²−1], an avg_degree that is negative or not finite, an
/// m above the n(n−1)/2 pairs there are, and a p range outside [0, 1] or
/// inverted.
Result<std::vector<UncertainEdge>> RandomEdges(
    const RandomGraphOptions& options, Rng& rng);

/// RandomEdges built into a graph on n nodes.
Result<UncertainGraph> RandomGraph(const RandomGraphOptions& options,
                                   Rng& rng);

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_GENERATORS_H_
