#include "chameleon/graph/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/string_util.h"

namespace chameleon::graph {

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

Result<UncertainGraph> ParseEdgeList(std::istream& in,
                                     std::string_view origin) {
  CHOBS_SPAN(span, "graph/io/parse_edge_list");
  std::vector<UncertainEdge> edges;
  std::vector<std::size_t> edge_lines;  // 1-based source line per edge
  std::unordered_set<std::uint64_t> seen_edges;
  NodeId declared_nodes = 0;
  bool has_declared_nodes = false;
  NodeId max_node = 0;
  std::string line;
  std::size_t line_number = 0;

  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = StripWhitespace(line);
    if (text.empty()) continue;
    if (text.front() == '#') {
      // Optional "# nodes <n>" header.
      const std::vector<std::string> tokens = SplitTokens(text, "# \t");
      if (tokens.size() == 2 && tokens[0] == "nodes") {
        const Result<std::int64_t> n = ParseInt(tokens[1]);
        if (n.ok() && *n >= 0) {
          declared_nodes = static_cast<NodeId>(*n);
          has_declared_nodes = true;
        }
      }
      continue;
    }
    const std::vector<std::string> fields = SplitTokens(text, " \t");
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("%.*s:%zu: expected 'u v p', got '%s'",
                    static_cast<int>(origin.size()), origin.data(),
                    line_number, std::string(text).c_str()));
    }
    const Result<std::int64_t> u = ParseInt(fields[0]);
    const Result<std::int64_t> v = ParseInt(fields[1]);
    const Result<double> p = ParseDouble(fields[2]);
    if (!u.ok() || !v.ok() || !p.ok() || *u < 0 || *v < 0) {
      return Status::InvalidArgument(
          StrFormat("%.*s:%zu: malformed edge line '%s'",
                    static_cast<int>(origin.size()), origin.data(),
                    line_number, std::string(text).c_str()));
    }
    const auto nu = static_cast<NodeId>(*u);
    const auto nv = static_cast<NodeId>(*v);
    // Duplicates are otherwise only caught in Build(), after the line
    // numbers are gone; catching them here keeps the diagnostic exact.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(nu, nv)) << 32) |
        std::max(nu, nv);
    if (nu != nv && !seen_edges.insert(key).second) {
      return Status::InvalidArgument(
          StrFormat("%.*s:%zu: duplicate edge (%u, %u)",
                    static_cast<int>(origin.size()), origin.data(),
                    line_number, nu, nv));
    }
    max_node = std::max({max_node, nu, nv});
    edges.push_back(UncertainEdge{nu, nv, *p});
    edge_lines.push_back(line_number);
  }

  const NodeId num_nodes =
      has_declared_nodes ? declared_nodes
                         : (edges.empty() ? 0 : max_node + 1);
  UncertainGraphBuilder builder(num_nodes);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const UncertainEdge& e = edges[i];
    if (Status s = builder.AddEdge(e.u, e.v, e.p); !s.ok()) {
      // Semantic rejects (self-loop, duplicate, out-of-range node) name
      // the offending source line, same as the syntax errors above — on
      // a million-line input "duplicate edge" alone is undiagnosable.
      return Status(s.code(),
                    StrFormat("%.*s:%zu: %s",
                              static_cast<int>(origin.size()), origin.data(),
                              edge_lines[i], s.message().c_str()));
    }
  }
  Result<UncertainGraph> graph = std::move(builder).Build();
  if (graph.ok()) {
    span.AddCount("lines", line_number);
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
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  CHOBS_COUNT("graph/io/files_read", 1);
  return ParseEdgeList(in, path);
}

Status WriteEdgeList(const UncertainGraph& graph, const std::string& path) {
  CHOBS_SPAN(span, "graph/io/write_edge_list");
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# chameleon uncertain graph\n";
  out << "# nodes " << graph.num_nodes() << "\n";
  for (const UncertainEdge& e : graph.edges()) {
    out << e.u << ' ' << e.v << ' ' << StrFormat("%.10g", e.p) << "\n";
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  span.AddCount("edges", graph.num_edges());
  CHOBS_COUNT("graph/io/edges_written", graph.num_edges());
  CHOBS_FLIGHT_EVENT(kGraphOp, path, graph.num_nodes(), graph.num_edges());
  return Status::OK();
}

}  // namespace chameleon::graph
