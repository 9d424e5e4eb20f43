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
/// Node-count policy: the count (the header's, or max id + 1) may exceed
/// twice the number of edge lines by at most 2^24 = 16,777,216. Only
/// isolated vertices lie past two per edge, and a count beyond that is
/// taken for a corrupt id or header (3000000000, or `# nodes 4000000000`
/// over one edge) rather than allocated. The error names the line that
/// set the count: the last header, or the first edge with the max id.
///
/// Every error is InvalidArgument and starts `<origin>:<line>: `. The one
/// reported is the first syntax error or duplicate pair in file order;
/// then a node count over the policy's limit; only when there is none,
/// the first out-of-range node, self-loop or bad probability.
///
/// WriteEdgeList prints p in shortest round-trip form, so ReadEdgeList of
/// a written file gives back the same doubles bit for bit.
///
/// Both run on up to `threads` workers (< 1 = the process default, as
/// every `threads` option; see util/parallel.h). ParseEdgeList cuts the
/// text into fixed blocks of 256 KiB, each owning the lines that start in
/// it; workers scan blocks straight into the graph's edge vector, and the
/// blocks merge in file order before the node count and the semantic
/// checks, which need every `# nodes` header. WriteEdgeList formats fixed
/// blocks of 16,384 edges on the workers, one buffer of under 1 MiB per
/// worker, and writes them in edge order. The block sizes are constants,
/// so the graph, every error (code, message and `<origin>:<line>`) and
/// every written byte are the same at any worker count; a file of one
/// block runs inline on the caller.

namespace chameleon::graph {

/// Parses the edge list `text` on up to `threads` workers. `origin`
/// names the source in errors.
Result<UncertainGraph> ParseEdgeList(std::string_view text,
                                     std::string_view origin,
                                     int threads = 0);

/// Reads the file at `path` into memory and parses it on up to `threads`
/// workers. IoError when it cannot be opened or read.
Result<UncertainGraph> ReadEdgeList(const std::string& path,
                                    int threads = 0);

/// Writes a "graph_summary" JSONL record (n, m, mean/max structural
/// degree, sum/mean edge probability, log2 degree histogram — the
/// degree-distribution telemetry the uniqueness score and
/// Poisson-binomial machinery consume) to the global obs sink. Called on
/// every successful edge-list load; also usable for generated graphs.
/// No-op when observability is disabled or has no sink.
void EmitGraphSummary(const UncertainGraph& graph, std::string_view origin);

/// Writes the `# nodes` header plus one `u v p` line per edge, p in
/// shortest round-trip form, formatting on up to `threads` workers. The
/// bytes go to a new file in the directory of `path`, which is renamed
/// over `path` only after every write and the close succeeded; on any
/// failure it is removed, and a file already at `path` is left as it
/// was, never cut short. (So `path` is replaced, not written through: a
/// symlink there is replaced by the file.) IoError when the new file
/// cannot be created, a write or the close fails, or the rename fails.
Status WriteEdgeList(const UncertainGraph& graph, const std::string& path,
                     int threads = 0);

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_IO_H_
