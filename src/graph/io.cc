#include "chameleon/graph/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <system_error>
#include <unordered_set>
#include <vector>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/string_util.h"
#include "io_blocks.h"

namespace chameleon::graph {

namespace {

constexpr std::size_t kNoEdge = ~std::size_t{0};

/// Vertices a file may have beyond two per edge line (io.h's node-count
/// policy): only isolated vertices can be past that, and more than 2^24
/// of them is read as a corrupt id or header, not a graph.
constexpr std::uint64_t kMaxIsolatedNodes = std::uint64_t{1} << 24;

/// Longest "u v p\n" line WriteEdgeList formats: two 10-digit ids and a
/// shortest round-trip double of at most 24 characters
/// ("-2.2250738585072014e-308"), with separators.
constexpr std::size_t kMaxEdgeLine = 10 + 1 + 10 + 1 + 24 + 1;

/// What WriteEdgeList puts before the node count.
constexpr std::string_view kHeader = "# chameleon uncertain graph\n# nodes ";
static_assert(kHeader.size() + 10 + 1 <= kMaxEdgeLine,
              "the header fits the room of one edge line");

/// The line of `text` that starts at `*pos`, stripped of whitespace as
/// StripWhitespace strips it, with `*pos` moved past its newline.
std::string_view NextLine(std::string_view text, std::size_t* pos) {
  const std::size_t newline = text.find('\n', *pos);
  const std::size_t end =
      newline == std::string_view::npos ? text.size() : newline;
  const std::string_view line = text.substr(*pos, end - *pos);
  *pos = end + 1;
  return StripWhitespace(line);
}

bool IsFieldBreak(char c) { return c == ' ' || c == '\t'; }
bool IsHeaderBreak(char c) { return c == '#' || IsFieldBreak(c); }

/// Cuts the next token off `*rest`: the run of characters between
/// `is_break` characters, skipping empty runs as SplitTokens does. Empty
/// once no token is left.
template <typename IsBreak>
std::string_view NextToken(std::string_view* rest, IsBreak is_break) {
  std::size_t begin = 0;
  while (begin < rest->size() && is_break((*rest)[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest->size() && !is_break((*rest)[end])) ++end;
  const std::string_view token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return token;
}

std::uint64_t PairKey(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

/// Newlines in [data, data + size). The fixed 128-byte inner loop
/// vectorizes, and its count fits the byte it is summed in.
std::size_t CountNewlines(const char* data, std::size_t size) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 128 <= size; i += 128) {
    unsigned char chunk = 0;
    for (std::size_t j = 0; j < 128; ++j) {
      chunk = static_cast<unsigned char>(chunk + (data[i + j] == '\n'));
    }
    count += chunk;
  }
  for (; i < size; ++i) count += data[i] == '\n';
  return count;
}

/// Lines of `text` that start in [from, to): offset 0 and every offset
/// after a newline, short of the end of the text.
std::size_t LineStarts(std::string_view text, std::size_t from,
                       std::size_t to) {
  if (from >= to) return 0;
  const std::size_t first = std::max<std::size_t>(from, 1);
  return (from == 0 ? 1 : 0) +
         CountNewlines(text.data() + first - 1, to - first);
}

/// The 1-based line of the `index`-th edge (0-based, in file order).
/// Every line before it that is neither blank nor a comment is an edge.
std::size_t LineOfEdge(std::string_view text, std::size_t index) {
  std::size_t line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::string_view line = NextLine(text, &pos);
    ++line_number;
    if (line.empty() || line.front() == '#') continue;
    if (index-- == 0) break;
  }
  return line_number;
}

/// The first edge, in file order, whose pair an earlier edge already has,
/// or kNoEdge. Self-loops have no pair here; AddEdges rejects them later.
/// `ascending` says every pair key exceeded the one before it, which rules
/// duplicates out without the sort.
std::size_t FirstDuplicate(std::span<const UncertainEdge> edges,
                           bool ascending) {
  if (ascending) return kNoEdge;
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const UncertainEdge& e : edges) {
    if (e.u != e.v) keys.push_back(PairKey(e.u, e.v));
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) == keys.end()) {
    return kNoEdge;
  }
  // Error path: walk the file order to name the first repeat.
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const UncertainEdge& e = edges[i];
    if (e.u != e.v && !seen.insert(PairKey(e.u, e.v)).second) return i;
  }
  return kNoEdge;
}

/// `line` quoted in an error message: a NUL byte shows as "\0" instead of
/// ending the text there.
std::string Printable(std::string_view line) {
  std::string text;
  for (const char c : line) {
    if (c == '\0') {
      text += "\\0";
    } else {
      text += c;
    }
  }
  return text;
}

Status LineError(std::string_view origin, std::size_t line,
                 const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("%.*s:%zu: %s", static_cast<int>(origin.size()),
                origin.data(), line, message.c_str()));
}

/// One parse block: where its lines and edges go, set before the scan,
/// and what ScanBlock found in it.
struct BlockScan {
  std::size_t first_line = 0;  // number of the first line it owns
  std::size_t first_slot = 0;  // index of its first edge slot
  std::size_t edges = 0;       // edges it wrote from first_slot on
  Status syntax_error;         // its first; the scan stops there
  // The largest node id of its edges, first seen on max_node_line.
  NodeId max_node = 0;
  std::size_t max_node_line = 0;
  // Its last `# nodes` header.
  bool has_header = false;
  NodeId header_nodes = 0;
  std::size_t header_line = 0;
  // Pair keys of its edges that are no self-loop: the first and the last
  // (0 while there is none), and whether each exceeded the one before.
  std::uint64_t first_key = 0;
  std::uint64_t last_key = 0;
  bool ascending = true;
};

/// Scans the lines that start in [begin, end) of `text`, one edge per
/// edge line into `slots`, endpoints as written: the syntax of each line,
/// node ids that fit NodeId, and `# nodes` headers, with what the merge
/// needs to find duplicate pairs and the node count.
void ScanBlock(std::string_view text, std::string_view origin,
               std::size_t begin, std::size_t end, UncertainEdge* slots,
               BlockScan* scan) {
  std::size_t pos = begin;
  if (pos > 0 && text[pos - 1] != '\n') {
    // The line under way started in an earlier block, which owns it.
    const std::size_t newline = text.find('\n', pos);
    pos = newline == std::string_view::npos ? text.size() : newline + 1;
  }
  std::size_t line_number = scan->first_line - 1;
  UncertainEdge* edge = slots;
  const auto syntax_error = [&](const std::string& message) {
    scan->syntax_error = LineError(origin, line_number, message);
  };
  while (pos < end) {
    const std::string_view line = NextLine(text, &pos);
    ++line_number;
    if (line.empty()) continue;
    std::string_view rest = line;
    if (line.front() == '#') {
      // Optional "# nodes <n>" header; any other comment is skipped.
      const std::string_view key = NextToken(&rest, IsHeaderBreak);
      const std::string_view count = NextToken(&rest, IsHeaderBreak);
      if (key != "nodes" || count.empty() ||
          !NextToken(&rest, IsHeaderBreak).empty()) {
        continue;
      }
      const Result<std::int64_t> n = ParseInt(count);
      if (!n.ok() || *n < 0) continue;
      if (*n > kInvalidNode) {
        syntax_error(StrFormat(
            "node count %lld does not fit NodeId (at most %u)",
            static_cast<long long>(*n), kInvalidNode));
        break;
      }
      scan->has_header = true;
      scan->header_nodes = static_cast<NodeId>(*n);
      scan->header_line = line_number;
      continue;
    }
    const std::string_view u_token = NextToken(&rest, IsFieldBreak);
    const std::string_view v_token = NextToken(&rest, IsFieldBreak);
    const std::string_view p_token = NextToken(&rest, IsFieldBreak);
    // The line ends in a non-space, so whatever is left is a fourth field.
    if (p_token.empty() || !rest.empty()) {
      syntax_error(StrFormat("expected 'u v p', got '%s'",
                             Printable(line).c_str()));
      break;
    }
    const Result<std::int64_t> u = ParseInt(u_token);
    const Result<std::int64_t> v = ParseInt(v_token);
    const Result<double> p = ParseDouble(p_token);
    if (!u.ok() || !v.ok() || !p.ok() || *u < 0 || *v < 0) {
      syntax_error(StrFormat("malformed edge line '%s'",
                             Printable(line).c_str()));
      break;
    }
    if (*u >= kInvalidNode || *v >= kInvalidNode) {
      syntax_error(StrFormat(
          "node id %lld does not fit NodeId (ids must be below %u)",
          static_cast<long long>(std::max(*u, *v)), kInvalidNode));
      break;
    }
    const auto nu = static_cast<NodeId>(*u);
    const auto nv = static_cast<NodeId>(*v);
    if (nu != nv) {
      const std::uint64_t key = PairKey(nu, nv);
      if (scan->first_key == 0) {
        scan->first_key = key;
      } else {
        scan->ascending = scan->ascending && key > scan->last_key;
      }
      scan->last_key = key;
    }
    if (edge == slots || std::max(nu, nv) > scan->max_node) {
      scan->max_node = std::max(nu, nv);
      scan->max_node_line = line_number;
    }
    *edge++ = UncertainEdge{nu, nv, *p};
  }
  scan->edges = static_cast<std::size_t>(edge - slots);
}

/// Formats `e` as a "u v p\n" line at `out`, p in shortest round-trip
/// form, and returns its end; [out, limit) must hold kMaxEdgeLine bytes.
char* FormatEdge(char* out, char* limit, const UncertainEdge& e) {
  out = std::to_chars(out, limit, e.u).ptr;
  *out++ = ' ';
  out = std::to_chars(out, limit, e.v).ptr;
  *out++ = ' ';
  out = std::to_chars(out, limit, e.p).ptr;
  *out++ = '\n';
  return out;
}

/// Writes the `size` bytes at `data` to `fd`; false once a write fails.
bool WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written <= 0) {
      if (written < 0 && errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

/// Creates a new file for writing in the directory of `path`, named
/// after it, and stores its name in `*temp`. -1 when none can be made.
int OpenBeside(const std::string& path, std::string* temp) {
  static std::atomic<unsigned> serial{0};
  for (int attempt = 0; attempt < 16; ++attempt) {
    *temp = StrFormat("%s.tmp.%ld.%u", path.c_str(),
                      static_cast<long>(::getpid()), serial.fetch_add(1));
    const int fd =
        ::open(temp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
  return -1;
}

}  // namespace

namespace internal {

Result<UncertainGraph> ParseEdgeListBlocks(std::string_view text,
                                           std::string_view origin,
                                           int threads,
                                           std::size_t block_bytes) {
  CHOBS_SPAN(span, "graph/io/parse_edge_list");
  // The lines before the first edge line (a written file's comment and
  // `# nodes` header) need no edge slot.
  std::size_t lead = 0;
  while (lead < text.size()) {
    std::size_t next = lead;
    const std::string_view line = NextLine(text, &next);
    if (!line.empty() && line.front() != '#') break;
    lead = std::min(next, text.size());
  }
  // Every other line gets a slot in one edge vector, so each block writes
  // its own run of it and no worker allocates; the vector becomes the
  // graph's. Each block's first line number is known up front as well.
  const std::size_t blocks = NumBlocks(text.size(), block_bytes);
  std::vector<BlockScan> scans(blocks);
  std::size_t lines = 0;
  std::size_t slots = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * block_bytes;
    const std::size_t end = std::min(text.size(), begin + block_bytes);
    const std::size_t block_lines = LineStarts(text, begin, end);
    scans[b].first_line = lines + 1;
    scans[b].first_slot = slots;
    lines += block_lines;
    slots += block_lines - LineStarts(text, begin, std::min(end, lead));
  }
  std::vector<UncertainEdge> edges(slots);
  ParallelForBlocks(
      text.size(), block_bytes, threads,
      [&](std::size_t block, std::size_t begin, std::size_t end) {
        BlockScan& scan = scans[block];
        ScanBlock(text, origin, begin, end, edges.data() + scan.first_slot,
                  &scan);
      });

  // Merge in file order, up to the first block that met a syntax error.
  // Edges move down over the slots of comments and blank lines; a file
  // whose comments all lead has none, and nothing moves.
  std::size_t kept = 0;
  bool ascending = true;
  std::uint64_t last_key = 0;
  NodeId max_node = 0;
  std::size_t max_node_line = 0;
  const BlockScan* header = nullptr;
  const BlockScan* failed = nullptr;
  for (const BlockScan& scan : scans) {
    if (scan.edges > 0 && (kept == 0 || scan.max_node > max_node)) {
      max_node = scan.max_node;
      max_node_line = scan.max_node_line;
    }
    if (scan.first_slot != kept) {
      std::copy_n(edges.begin() + static_cast<std::ptrdiff_t>(scan.first_slot),
                  scan.edges, edges.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    kept += scan.edges;
    if (scan.first_key != 0) {
      ascending = ascending && scan.ascending && scan.first_key > last_key;
      last_key = scan.last_key;
    }
    if (scan.has_header) header = &scan;
    if (!scan.syntax_error.ok()) {
      failed = &scan;
      break;
    }
  }
  edges.resize(kept);

  // A duplicate pair on an earlier line is reported before a syntax error.
  const std::size_t duplicate = FirstDuplicate(edges, ascending);
  if (duplicate != kNoEdge) {
    return LineError(origin, LineOfEdge(text, duplicate),
                     StrFormat("duplicate edge (%u, %u)", edges[duplicate].u,
                               edges[duplicate].v));
  }
  if (failed != nullptr) return failed->syntax_error;

  const NodeId num_nodes = header != nullptr
                               ? header->header_nodes
                               : (edges.empty() ? 0 : max_node + 1);
  const std::uint64_t limit =
      2 * std::uint64_t{edges.size()} + kMaxIsolatedNodes;
  if (num_nodes > limit) {
    const std::string why = StrFormat(
        "more than %llu (2 per edge plus 2^24 isolated vertices)",
        static_cast<unsigned long long>(limit));
    return header != nullptr
               ? LineError(origin, header->header_line,
                           StrFormat("node count %u is %s", num_nodes,
                                     why.c_str()))
               : LineError(origin, max_node_line,
                           StrFormat("node id %u makes %u nodes, %s",
                                     max_node, num_nodes, why.c_str()));
  }

  UncertainGraphBuilder builder(num_nodes);
  std::size_t rejected = 0;
  if (Status s = builder.AddEdges(std::move(edges), &rejected); !s.ok()) {
    // Semantic rejects (self-loop, out-of-range node, bad probability)
    // name the offending source line, same as the syntax errors — on a
    // million-line input "self-loop at node 7" alone is undiagnosable.
    return Status(s.code(),
                  StrFormat("%.*s:%zu: %s", static_cast<int>(origin.size()),
                            origin.data(), LineOfEdge(text, rejected),
                            s.message().c_str()));
  }
  Result<UncertainGraph> graph = std::move(builder).Build();
  if (graph.ok()) {
    span.AddCount("lines", lines);
    span.AddCount("edges", graph->num_edges());
    CHOBS_COUNT("graph/io/edges_read", graph->num_edges());
    EmitGraphSummary(*graph, origin);
  }
  return graph;
}

Status WriteEdgeListBlocks(const UncertainGraph& graph,
                           const std::string& path, int threads,
                           std::size_t block_edges) {
  CHOBS_SPAN(span, "graph/io/write_edge_list");
  // The lines go to a new file beside `path`, which replaces it only once
  // every byte is written and the file is closed: a failed write leaves
  // an existing file as it was, and no prefix that reads as a graph.
  std::string temp;
  const int fd = OpenBeside(path, &temp);
  if (fd < 0) return Status::IoError("cannot open " + path + " for writing");

  // One buffer per worker, reused block after block.
  const std::vector<UncertainEdge>& edges = graph.edges();
  const std::size_t workers = std::max<std::size_t>(
      1, ParallelWorkers(edges.size(), block_edges, threads));
  const std::size_t room =
      std::max<std::size_t>(1, std::min(edges.size(), block_edges)) *
      kMaxEdgeLine;
  std::vector<std::unique_ptr<char[]>> buffers(workers);
  for (std::unique_ptr<char[]>& buffer : buffers) {
    buffer = std::make_unique_for_overwrite<char[]>(room);
  }

  char* const header = buffers[0].get();
  char* out = std::copy(kHeader.begin(), kHeader.end(), header);
  out = std::to_chars(out, header + room, graph.num_nodes()).ptr;
  *out++ = '\n';
  std::atomic<bool> failed{
      !WriteAll(fd, header, static_cast<std::size_t>(out - header))};
  // The block whose turn it is to write. Blocks are claimed in increasing
  // order, one at a time per worker, so the blocks in flight are
  // consecutive, at most `workers` of them, each with its own buffer, and
  // every block before this one is being formatted or waits its turn.
  std::atomic<std::size_t> turn{0};
  const auto wait_for_turn = [&turn](std::size_t block) {
    for (std::size_t now = turn.load(std::memory_order_acquire); now < block;
         now = turn.load(std::memory_order_acquire)) {
      turn.wait(now, std::memory_order_acquire);
    }
  };
  ParallelForBlocks(
      edges.size(), block_edges, threads,
      [&](std::size_t block, std::size_t begin, std::size_t end) {
        // The buffer's previous block is written already; waiting for
        // that orders the write's reads before the formatting below.
        if (block >= workers) wait_for_turn(block - workers + 1);
        char* const buffer = buffers[block % workers].get();
        char* line = buffer;
        if (!failed.load(std::memory_order_relaxed)) {
          for (std::size_t i = begin; i < end; ++i) {
            line = FormatEdge(line, buffer + room, edges[i]);
          }
        }
        wait_for_turn(block);
        if (!failed.load(std::memory_order_relaxed) &&
            !WriteAll(fd, buffer, static_cast<std::size_t>(line - buffer))) {
          failed.store(true, std::memory_order_relaxed);
        }
        turn.store(block + 1, std::memory_order_release);
        turn.notify_all();
      });

  const bool closed = ::close(fd) == 0;
  if (failed.load() || !closed) {
    std::remove(temp.c_str());
    return Status::IoError("write failed: " + path);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::IoError("cannot replace " + path);
  }
  span.AddCount("edges", graph.num_edges());
  CHOBS_COUNT("graph/io/edges_written", graph.num_edges());
  return Status::OK();
}

}  // namespace internal

void EmitGraphSummary(const UncertainGraph& graph, std::string_view origin) {
  if (!obs::Enabled()) return;
  obs::RecordSink* sink = obs::GlobalSink();
  if (sink == nullptr) return;

  std::size_t max_degree = 0;
  // Bucket 0: degree-0 nodes; bucket k>=1: degree in [2^(k-1), 2^k).
  std::vector<std::uint64_t> hist;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::size_t degree = graph.Neighbors(v).size();
    max_degree = std::max(max_degree, degree);
    std::size_t bucket = 0;
    for (std::size_t d = degree; d > 0; d >>= 1) ++bucket;
    if (bucket >= hist.size()) hist.resize(bucket + 1, 0);
    ++hist[bucket];
  }

  const auto n = static_cast<double>(graph.num_nodes());
  const auto m = static_cast<double>(graph.num_edges());
  obs::Record record("graph_summary");
  record.Str("origin", origin)
      .Int("nodes", graph.num_nodes())
      .Int("edges", graph.num_edges())
      .Num("mean_degree", n > 0 ? 2.0 * m / n : 0.0)
      .Int("max_degree", max_degree)
      .Num("sum_p", graph.expected_num_edges())
      .Num("mean_p", graph.mean_probability())
      .Array("deg_hist_log2");
  for (const std::uint64_t count : hist) record.Int(count);
  sink->Write(record.Finish());
}

Result<UncertainGraph> ParseEdgeList(std::string_view text,
                                     std::string_view origin, int threads) {
  return internal::ParseEdgeListBlocks(text, origin, threads,
                                       internal::kParseBlockBytes);
}

Result<UncertainGraph> ReadEdgeList(const std::string& path, int threads) {
  CHOBS_SPAN(span, "graph/io/read_edge_list");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  // A regular file is read in one fread into a buffer one byte longer
  // than it, so that read already sees EOF; anything else (a pipe) grows
  // the buffer as it goes.
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? std::size_t{1} << 16 : size + 1, '\0');
  std::size_t used = 0;
  for (;;) {
    used += std::fread(text.data() + used, 1, text.size() - used, file);
    if (used < text.size()) break;  // end of file, or a read error
    text.resize(2 * text.size());
  }
  const bool read_failed = std::ferror(file) != 0;
  std::fclose(file);
  if (read_failed) return Status::IoError("read failed: " + path);
  text.resize(used);
  CHOBS_COUNT("graph/io/files_read", 1);
  return ParseEdgeList(text, path, threads);
}

Status WriteEdgeList(const UncertainGraph& graph, const std::string& path,
                     int threads) {
  return internal::WriteEdgeListBlocks(graph, path, threads,
                                       internal::kWriteBlockEdges);
}

}  // namespace chameleon::graph
