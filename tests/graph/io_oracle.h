#ifndef CHAMELEON_TESTS_GRAPH_IO_ORACLE_H_
#define CHAMELEON_TESTS_GRAPH_IO_ORACLE_H_

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/util/status.h"
#include "chameleon/util/string_util.h"

/// \file io_oracle.h
/// The line-by-line edge-list parser that ParseEdgeList's one-pass buffer
/// scan replaced, kept only as a test oracle: std::getline over an
/// istream, a std::string and a SplitTokens vector per line, strtoll /
/// strtod for the numbers, and an unordered_set for duplicate pairs. The
/// number parsers are the strtoll / strtod versions that ParseInt and
/// ParseDouble replaced; inside namespace `oracle` the parser's
/// unqualified calls resolve to them.
///
/// It differs from today's parser on three inputs by design: it wraps
/// node ids and `# nodes` counts that do not fit NodeId, it ends a token
/// at a NUL byte, and strtod's ERANGE refuses subnormal probabilities.

namespace chameleon::graph::oracle {

inline Result<std::int64_t> ParseInt(std::string_view text) {
  const std::string token(StripWhitespace(text));
  if (token.empty()) return Status::InvalidArgument("empty integer token");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + token);
  }
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("not an integer: " + token);
  }
  return static_cast<std::int64_t>(value);
}

inline Result<double> ParseDouble(std::string_view text) {
  const std::string token(StripWhitespace(text));
  if (token.empty()) return Status::InvalidArgument("empty number token");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of range: " + token);
  }
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("not a number: " + token);
  }
  return value;
}

inline Result<UncertainGraph> ParseEdgeList(std::istream& in,
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
    EmitGraphSummary(*graph, origin);
  }
  return graph;
}

}  // namespace chameleon::graph::oracle

#endif  // CHAMELEON_TESTS_GRAPH_IO_ORACLE_H_
