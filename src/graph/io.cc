#include "chameleon/graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <unordered_set>
#include <vector>

#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/string_util.h"

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
constexpr std::ptrdiff_t kMaxEdgeLine = 10 + 1 + 10 + 1 + 24 + 1;

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
/// or kNoEdge. Self-loops have no pair here; AddEdge rejects them later.
/// `ascending` says every pair key exceeded the one before it, which rules
/// duplicates out without the sort.
std::size_t FirstDuplicate(const std::vector<UncertainEdge>& edges,
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

/// What one pass over an edge list gathers.
struct ScannedEdges {
  std::vector<UncertainEdge> edges;  // file order, endpoints as written
  NodeId num_nodes = 0;
  std::size_t lines = 0;
};

/// One pass over `text`: the syntax of every line, node ids that fit
/// NodeId, the `# nodes` header, and duplicate pairs. The error reported
/// is the first syntax error or duplicate pair in file order.
Status ScanEdgeList(std::string_view text, std::string_view origin,
                    ScannedEdges* out) {
  std::vector<UncertainEdge>& edges = out->edges;
  // Each edge line takes at least six bytes ("0 1 0\n"); the reserve
  // costs address space, not resident memory, where it runs long.
  edges.reserve(text.size() / 6 + 1);
  NodeId declared_nodes = 0;
  bool has_declared_nodes = false;
  std::size_t declared_line = 0;
  NodeId max_node = 0;
  std::size_t max_node_line = 0;
  // Pair keys of the edges so far strictly increase while `ascending`
  // holds. A pair key is never 0, so 0 starts the chain.
  std::uint64_t last_key = 0;
  bool ascending = true;
  std::size_t line_number = 0;
  const auto duplicate_error = [&](std::size_t index) {
    return LineError(origin, LineOfEdge(text, index),
                     StrFormat("duplicate edge (%u, %u)", edges[index].u,
                               edges[index].v));
  };
  // A duplicate pair on an earlier line is reported before a syntax error.
  const auto syntax_error = [&](const std::string& message) {
    const std::size_t duplicate = FirstDuplicate(edges, ascending);
    if (duplicate != kNoEdge) return duplicate_error(duplicate);
    return LineError(origin, line_number, message);
  };

  for (std::size_t pos = 0; pos < text.size();) {
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
        return syntax_error(StrFormat(
            "node count %lld does not fit NodeId (at most %u)",
            static_cast<long long>(*n), kInvalidNode));
      }
      declared_nodes = static_cast<NodeId>(*n);
      has_declared_nodes = true;
      declared_line = line_number;
      continue;
    }
    const std::string_view u_token = NextToken(&rest, IsFieldBreak);
    const std::string_view v_token = NextToken(&rest, IsFieldBreak);
    const std::string_view p_token = NextToken(&rest, IsFieldBreak);
    // The line ends in a non-space, so whatever is left is a fourth field.
    if (p_token.empty() || !rest.empty()) {
      return syntax_error(StrFormat("expected 'u v p', got '%s'",
                                    Printable(line).c_str()));
    }
    const Result<std::int64_t> u = ParseInt(u_token);
    const Result<std::int64_t> v = ParseInt(v_token);
    const Result<double> p = ParseDouble(p_token);
    if (!u.ok() || !v.ok() || !p.ok() || *u < 0 || *v < 0) {
      return syntax_error(StrFormat("malformed edge line '%s'",
                                    Printable(line).c_str()));
    }
    if (*u >= kInvalidNode || *v >= kInvalidNode) {
      return syntax_error(StrFormat(
          "node id %lld does not fit NodeId (ids must be below %u)",
          static_cast<long long>(std::max(*u, *v)), kInvalidNode));
    }
    const auto nu = static_cast<NodeId>(*u);
    const auto nv = static_cast<NodeId>(*v);
    if (nu != nv) {
      const std::uint64_t key = PairKey(nu, nv);
      ascending = ascending && key > last_key;
      last_key = key;
    }
    if (edges.empty() || std::max(nu, nv) > max_node) {
      max_node = std::max(nu, nv);
      max_node_line = line_number;
    }
    edges.push_back(UncertainEdge{nu, nv, *p});
  }

  const std::size_t duplicate = FirstDuplicate(edges, ascending);
  if (duplicate != kNoEdge) return duplicate_error(duplicate);
  out->num_nodes = has_declared_nodes ? declared_nodes
                                      : (edges.empty() ? 0 : max_node + 1);
  const std::uint64_t limit =
      2 * std::uint64_t{edges.size()} + kMaxIsolatedNodes;
  if (out->num_nodes > limit) {
    const std::string why = StrFormat(
        "more than %llu (2 per edge plus 2^24 isolated vertices)",
        static_cast<unsigned long long>(limit));
    return has_declared_nodes
               ? LineError(origin, declared_line,
                           StrFormat("node count %u is %s", out->num_nodes,
                                     why.c_str()))
               : LineError(origin, max_node_line,
                           StrFormat("node id %u makes %u nodes, %s",
                                     max_node, out->num_nodes, why.c_str()));
  }
  out->lines = line_number;
  return Status::OK();
}

}  // namespace

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
                                     std::string_view origin) {
  CHOBS_SPAN(span, "graph/io/parse_edge_list");
  ScannedEdges scanned;
  CHAMELEON_RETURN_IF_ERROR(ScanEdgeList(text, origin, &scanned));
  UncertainGraphBuilder builder(scanned.num_nodes);
  builder.Reserve(scanned.edges.size());
  for (std::size_t i = 0; i < scanned.edges.size(); ++i) {
    const UncertainEdge& e = scanned.edges[i];
    if (Status s = builder.AddEdge(e.u, e.v, e.p); !s.ok()) {
      // Semantic rejects (self-loop, out-of-range node, bad probability)
      // name the offending source line, same as the syntax errors — on a
      // million-line input "self-loop at node 7" alone is undiagnosable.
      return Status(s.code(),
                    StrFormat("%.*s:%zu: %s",
                              static_cast<int>(origin.size()), origin.data(),
                              LineOfEdge(text, i), s.message().c_str()));
    }
  }
  // The builder holds its own copy; release this one before Build().
  std::vector<UncertainEdge>().swap(scanned.edges);
  Result<UncertainGraph> graph = std::move(builder).Build();
  if (graph.ok()) {
    span.AddCount("lines", scanned.lines);
    span.AddCount("edges", graph->num_edges());
    CHOBS_COUNT("graph/io/edges_read", graph->num_edges());
    CHOBS_FLIGHT_EVENT(kGraphOp, origin, graph->num_nodes(),
                       graph->num_edges());
    EmitGraphSummary(*graph, origin);
  }
  return graph;
}

Result<UncertainGraph> ReadEdgeList(const std::string& path) {
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
  return ParseEdgeList(text, path);
}

Status WriteEdgeList(const UncertainGraph& graph, const std::string& path) {
  CHOBS_SPAN(span, "graph/io/write_edge_list");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  // Lines are formatted into `buffer` and handed to fwrite a buffer at a
  // time. p is written in shortest round-trip form, so reading the file
  // back gives the very doubles that were certified. Each number ends a
  // byte before `limit`, which keeps its separator inside the buffer.
  char buffer[1 << 16];
  char* const limit = buffer + sizeof(buffer) - 1;
  char* out = buffer;
  bool written = true;
  const auto flush = [&] {
    const auto bytes = static_cast<std::size_t>(out - buffer);
    written = written && std::fwrite(buffer, 1, bytes, file) == bytes;
    out = buffer;
  };
  const auto put = [&](auto number, char separator) {
    out = std::to_chars(out, limit, number).ptr;
    *out++ = separator;
  };
  constexpr std::string_view kHeader = "# chameleon uncertain graph\n# nodes ";
  out = std::copy(kHeader.begin(), kHeader.end(), out);
  put(graph.num_nodes(), '\n');
  for (const UncertainEdge& e : graph.edges()) {
    if (limit - out < kMaxEdgeLine) flush();
    put(e.u, ' ');
    put(e.v, ' ');
    put(e.p, '\n');
  }
  flush();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) return Status::IoError("write failed: " + path);
  span.AddCount("edges", graph.num_edges());
  CHOBS_COUNT("graph/io/edges_written", graph.num_edges());
  CHOBS_FLIGHT_EVENT(kGraphOp, path, graph.num_nodes(), graph.num_edges());
  return Status::OK();
}

}  // namespace chameleon::graph
