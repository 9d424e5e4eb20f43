#ifndef CHAMELEON_SRC_GRAPH_IO_BLOCKS_H_
#define CHAMELEON_SRC_GRAPH_IO_BLOCKS_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file io_blocks.h
/// The block cut behind ParseEdgeList and WriteEdgeList (io.h), with the
/// block size as an argument. The public calls pass the constants below;
/// tests pass blocks of a few bytes or edges, so that a small input
/// crosses many block edges.
///
/// A parse block is a fixed run of bytes of the text and owns the lines
/// that start in it; a write block is a fixed run of edges. Block
/// boundaries depend only on the input and the block size, and blocks
/// merge in file order, so the graph, the error and the written bytes do
/// not depend on how many workers run them.

namespace chameleon::graph::internal {

/// Bytes of text per parse block: an er-2k input (~250 KB) is one block
/// and runs inline on the caller.
inline constexpr std::size_t kParseBlockBytes = std::size_t{1} << 18;

/// Edges per write block. At most 47 bytes a line, a block's buffer
/// stays under 1 MiB.
inline constexpr std::size_t kWriteBlockEdges = std::size_t{1} << 14;

/// ParseEdgeList with `block_bytes` bytes per block (> 0).
Result<UncertainGraph> ParseEdgeListBlocks(std::string_view text,
                                           std::string_view origin,
                                           int threads,
                                           std::size_t block_bytes);

/// WriteEdgeList with `block_edges` edges per block (> 0).
Status WriteEdgeListBlocks(const UncertainGraph& graph,
                           const std::string& path, int threads,
                           std::size_t block_edges);

}  // namespace chameleon::graph::internal

#endif  // CHAMELEON_SRC_GRAPH_IO_BLOCKS_H_
