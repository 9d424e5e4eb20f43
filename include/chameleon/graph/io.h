#ifndef CHAMELEON_GRAPH_IO_H_
#define CHAMELEON_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file io.h
/// Edge-list I/O, the format of every input and every published graph.
///
/// Grammar, line by line (lines end at '\n'; leading and trailing
/// whitespace, '\r' included, is ignored):
///   - a blank line is skipped;
///   - a line starting with '#' is a comment, except `# nodes <n>`: split
///     on '#', ' ' and '\t' into exactly the tokens "nodes" and an integer
///     n >= 0, it fixes the node count (the last such header wins). n must
///     be at most 4294967295. Without a header the count is max id + 1, so
///     isolated trailing vertices need one;
///   - any other line is `u v p`: exactly three tokens split on ' ' and
///     '\t'. u and v are ParseInt integers in [0, 4294967295), p is a
///     ParseDouble number (strtod's grammar: signs, hex floats, inf, nan;
///     subnormals are values) that the builder then requires in [0, 1].
///     No self-loops, and no pair twice in either orientation.
///
/// Every error is InvalidArgument and starts `<origin>:<line>: `. The one
/// reported is the first syntax error or duplicate pair in file order;
/// only when there is none, the first out-of-range node, self-loop or bad
/// probability.
///
/// WriteEdgeList prints p in shortest round-trip form, so ReadEdgeList of
/// a written file gives back the same doubles bit for bit.

namespace chameleon::graph {

/// Parses the edge list `text`. `origin` names the source in errors.
Result<UncertainGraph> ParseEdgeList(std::string_view text,
                                     std::string_view origin);

/// Reads the file at `path` into memory and parses it. IoError when it
/// cannot be opened or read.
Result<UncertainGraph> ReadEdgeList(const std::string& path);

/// Writes a "graph_summary" JSONL record (n, m, mean/max structural
/// degree, sum/mean edge probability, log2 degree histogram — the
/// degree-distribution telemetry the uniqueness score and
/// Poisson-binomial machinery consume) to the global obs sink. Called on
/// every successful edge-list load; also usable for generated graphs.
/// No-op when observability is disabled or has no sink.
void EmitGraphSummary(const UncertainGraph& graph, std::string_view origin);

/// Writes the `# nodes` header plus one `u v p` line per edge, p in
/// shortest round-trip form. IoError when the file cannot be opened or a
/// write fails.
Status WriteEdgeList(const UncertainGraph& graph, const std::string& path);

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_IO_H_
