// ParseEdgeList against the line-by-line parser it replaced
// (graph/io_oracle.h): a seeded differential fuzz over hostile inputs, the
// number grammar token by token, the order errors are reported in, the
// three inputs on which the two differ by design, the exact re-read of
// written probabilities, and a read from a pipe. The fuzz and the error
// order also run with the text cut into blocks of 1, 7 and 64 bytes
// (graph/io_blocks.h) at 1, 2, 3 and 8 workers, beside inputs made to put
// a block edge where the merge of blocks could go wrong.

#include <array>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/alloc_stats.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"
#include "graph/io_blocks.h"
#include "graph/io_oracle.h"

namespace chameleon::graph {
namespace {

std::uint64_t Bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// `text` with control bytes escaped, for failure messages.
std::string Escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (byte < 0x20 || byte == 0x7f) {
      out += StrFormat("\\x%02x", byte);
    } else {
      out += c;
    }
  }
  return out;
}

Result<UncertainGraph> OracleParse(std::string_view text,
                                   std::string_view origin) {
  std::istringstream in{std::string(text)};
  return oracle::ParseEdgeList(in, origin);
}

/// The same status code and message, or the same graph: node count, edge
/// order and every probability bit for bit.
testing::AssertionResult SameOutcome(const Result<UncertainGraph>& got,
                                     const Result<UncertainGraph>& want) {
  if (got.ok() != want.ok()) {
    return testing::AssertionFailure()
           << "parser: " << (got.ok() ? "a graph" : got.status().ToString())
           << "; oracle: "
           << (want.ok() ? "a graph" : want.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return testing::AssertionFailure()
             << "parser: " << Escaped(got.status().ToString())
             << "; oracle: " << Escaped(want.status().ToString());
    }
    return testing::AssertionSuccess();
  }
  if (got->num_nodes() != want->num_nodes() ||
      got->num_edges() != want->num_edges()) {
    return testing::AssertionFailure()
           << "parser: " << got->num_nodes() << " nodes, "
           << got->num_edges() << " edges; oracle: " << want->num_nodes()
           << " nodes, " << want->num_edges() << " edges";
  }
  for (std::size_t i = 0; i < got->num_edges(); ++i) {
    const UncertainEdge& a = got->edges()[i];
    const UncertainEdge& b = want->edges()[i];
    if (a.u != b.u || a.v != b.v || Bits(a.p) != Bits(b.p)) {
      return testing::AssertionFailure()
             << "edge " << i << ": parser (" << a.u << ", " << a.v << ", "
             << StrFormat("%a", a.p) << "), oracle (" << b.u << ", " << b.v
             << ", " << StrFormat("%a", b.p) << ")";
    }
  }
  return testing::AssertionSuccess();
}

/// Block sizes and worker counts every comparison also runs at. Blocks
/// this small cut even a short input inside its tokens, between '\r' and
/// '\n', and around lines that are only blank or a comment.
constexpr std::array<std::size_t, 3> kBlockBytes = {1, 7, 64};
constexpr std::array<int, 4> kWorkers = {1, 2, 3, 8};

/// The block parse of `text` at every size and worker count above must
/// give `want`, graph or error, exactly.
testing::AssertionResult SameAtEveryCut(std::string_view text,
                                        std::string_view origin,
                                        const Result<UncertainGraph>& want) {
  for (const std::size_t block_bytes : kBlockBytes) {
    for (const int workers : kWorkers) {
      const testing::AssertionResult same = SameOutcome(
          internal::ParseEdgeListBlocks(text, origin, workers, block_bytes),
          want);
      if (!same) {
        return testing::AssertionFailure()
               << block_bytes << "-byte blocks, " << workers
               << " workers: " << same.message();
      }
    }
  }
  return testing::AssertionSuccess();
}

/// Whether strtod reads `token` as a subnormal: it flags ERANGE, so the
/// oracle refuses what ParseDouble accepts.
bool IsSubnormalToken(std::string_view token) {
  const std::string text(StripWhitespace(token));
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  return errno == ERANGE && x != 0.0 && std::isfinite(x);
}

/// Whether the oracle and ParseEdgeList part ways on `text` by design: a
/// NUL byte, a subnormal probability, or a node id or `# nodes` count
/// that parses but does not fit NodeId, on a line the oracle would
/// otherwise accept.
bool HasDeliberateDivergence(std::string_view text) {
  if (text.find('\0') != std::string_view::npos) return true;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end =
        newline == std::string_view::npos ? text.size() : newline;
    const std::string_view line = StripWhitespace(text.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty()) continue;
    if (line.front() == '#') {
      const std::vector<std::string> tokens = SplitTokens(line, "# \t");
      if (tokens.size() == 2 && tokens[0] == "nodes") {
        const Result<std::int64_t> n = oracle::ParseInt(tokens[1]);
        if (n.ok() && *n > kInvalidNode) return true;
      }
      continue;
    }
    const std::vector<std::string> fields = SplitTokens(line, " \t");
    if (fields.size() != 3) continue;
    const Result<std::int64_t> u = oracle::ParseInt(fields[0]);
    const Result<std::int64_t> v = oracle::ParseInt(fields[1]);
    if (!u.ok() || !v.ok() || *u < 0 || *v < 0) continue;
    if (*u >= kInvalidNode || *v >= kInvalidNode) return true;
    if (IsSubnormalToken(fields[2])) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Number grammar

constexpr std::array<std::string_view, 7> kSigns = {"",   "+",  "-", "+-",
                                                    "-+", "--", "++"};
constexpr std::array<std::string_view, 9> kSuffixes = {
    "", "x", "e", ".", "\v", "\r", "\f", " ", "0"};
constexpr std::array<std::string_view, 4> kPrefixes = {"", " ", "\t", "\v"};
constexpr std::array<std::string_view, 64> kNumberBodies = {
    "0",
    "00",
    "007",
    "1",
    "42",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551616",
    "99999999999999999999",
    "123456789012345678901234567890",
    "0.5",
    ".5",
    "5.",
    ".",
    "0.5e",
    "1e5",
    "1E5",
    "1e+5",
    "1e-5",
    "1e",
    "1e+",
    "e5",
    "1e400",
    "1e-400",
    "1e-300",
    "2.4e-324",
    "0e99999999999999999999",
    "1e99999999999999999999",
    "1e-99999999999999999999",
    "0.000000000000000000000000000001",
    "0.1",
    "0.30000000000000004",
    "0.99999999999999989",
    "1.7976931348623157e308",
    "1.7976931348623159e308",
    "2.2250738585072014e-308",
    "0x1p-1",
    "0X1P-1",
    "0x1",
    "0x",
    "0x.8",
    "0x.",
    "0x1p",
    "0xg",
    "0x1.8p1",
    "0x1p2000",
    "0x1p-2000",
    "0x1P+3",
    "0xinf",
    "inf",
    "INF",
    "Infinity",
    "infinit",
    "nan",
    "NaN",
    "nan()",
    "nan(abc_1)",
    "nan(",
    "abc",
    "1x",
    "1.5.5",
    "1_000",
};

TEST(IoParserTest, NumberTokensMatchTheStrtodGrammar) {
  std::size_t compared = 0;
  for (const std::string_view prefix : kPrefixes) {
    for (const std::string_view sign : kSigns) {
      for (const std::string_view body : kNumberBodies) {
        for (const std::string_view suffix : kSuffixes) {
          const std::string token = std::string(prefix) + std::string(sign) +
                                    std::string(body) + std::string(suffix);
          const Result<std::int64_t> i = ParseInt(token);
          const Result<std::int64_t> want_i = oracle::ParseInt(token);
          ASSERT_EQ(i.ok(), want_i.ok()) << "'" << Escaped(token) << "'";
          if (i.ok()) {
            EXPECT_EQ(*i, *want_i) << "'" << Escaped(token) << "'";
          } else {
            EXPECT_EQ(i.status().code(), want_i.status().code())
                << "'" << Escaped(token) << "'";
            EXPECT_EQ(i.status().message(), want_i.status().message());
          }
          if (IsSubnormalToken(token)) continue;
          const Result<double> d = ParseDouble(token);
          const Result<double> want_d = oracle::ParseDouble(token);
          ASSERT_EQ(d.ok(), want_d.ok()) << "'" << Escaped(token) << "'";
          if (d.ok()) {
            // strtod keeps a nan(n-chars) payload, from_chars does not; a
            // NaN is never a probability, so only its sign is compared.
            if (std::isnan(*want_d)) {
              EXPECT_TRUE(std::isnan(*d)) << "'" << Escaped(token) << "'";
              EXPECT_EQ(std::signbit(*d), std::signbit(*want_d))
                  << "'" << Escaped(token) << "'";
            } else {
              EXPECT_EQ(Bits(*d), Bits(*want_d))
                  << "'" << Escaped(token) << "'";
            }
          } else {
            EXPECT_EQ(d.status().code(), want_d.status().code())
                << "'" << Escaped(token) << "'";
            EXPECT_EQ(d.status().message(), want_d.status().message());
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 15000u);
}

TEST(IoParserTest, NumberEdgeCases) {
  EXPECT_EQ(*ParseInt("+7"), 7);
  EXPECT_EQ(*ParseInt("-0"), 0);
  EXPECT_EQ(ParseInt("+-7").status().message(), "not an integer: +-7");
  EXPECT_EQ(ParseInt("99999999999999999999").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(*ParseDouble("+0.25"), 0.25);
  EXPECT_EQ(*ParseDouble("0x1p-1"), 0.5);
  EXPECT_EQ(*ParseDouble("-0X.8P1"), -1.0);
  EXPECT_TRUE(std::signbit(*ParseDouble("-0")));
  EXPECT_TRUE(std::isinf(*ParseDouble("-Infinity")));
  EXPECT_TRUE(std::isnan(*ParseDouble("nan(7)")));
  EXPECT_EQ(ParseDouble("1e400").status().message(),
            "number out of range: 1e400");
  EXPECT_EQ(ParseDouble("-1e-400").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseDouble("0xinf").status().message(), "not a number: 0xinf");
  EXPECT_EQ(ParseDouble("  ").status().message(), "empty number token");
}

// ---------------------------------------------------------------------------
// Differential fuzz

/// Seeded edge lists built from the tokens a reader gets wrong: signs,
/// leading zeros, ids past 2^32 and past int64, inf/nan, hex floats, out-
/// of-range exponents, half-finished numbers, '\r' '\v' '\f' at token
/// ends and between fields, tabs, lines of 2 and 4 fields, `# nodes`
/// headers before and after the edges, repeated pairs in either
/// orientation, self-loops and blank lines. No NUL bytes and no
/// subnormals: those are pinned below.
class HostileEdgeLists {
 public:
  explicit HostileEdgeLists(std::uint64_t seed) : rng_(seed) {}

  std::string Next() {
    pairs_.clear();
    std::string text;
    const std::size_t lines = rng_.UniformInt(13);
    for (std::size_t i = 0; i < lines; ++i) {
      if (rng_.Bernoulli(0.1)) text += Pick(kLeading);
      text += Line();
      const bool last = i + 1 == lines;
      if (last && rng_.Bernoulli(0.3)) break;
      text += rng_.Bernoulli(0.1) ? "\r\n" : "\n";
    }
    return text;
  }

 private:
  static constexpr std::array<std::string_view, 3> kLeading = {" ", "\t",
                                                               " \t"};
  static constexpr std::array<std::string_view, 5> kBlank = {"", " ", "\t",
                                                             "\r", "\v\f "};
  static constexpr std::array<std::string_view, 4> kBreaks = {" ", "\t", "  ",
                                                              " \t "};
  static constexpr std::array<std::string_view, 3> kTokenEnds = {"\r", "\v",
                                                                 "\f"};
  static constexpr std::array<std::string_view, 19> kOddIds = {
      "+3",
      "-0",
      "00",
      "007",
      "-1",
      "+-1",
      "4294967295",
      "4294967296",
      "9223372036854775807",
      "99999999999999999999",
      "18446744073709551616",
      "1.0",
      "x",
      "0x1",
      "1e2",
      "\f2",
      "+",
      "-",
      "3a",
  };
  static constexpr std::array<std::string_view, 36> kProbabilities = {
      "0.5",
      "0.25",
      "0",
      "1",
      "0.1",
      ".5",
      "5.",
      "0.5e",
      "1e-300",
      "inf",
      "-inf",
      "nan",
      "-nan",
      "0x1p-1",
      "0X1P-2",
      "1e400",
      "1e-400",
      "1.5",
      "-0.1",
      "+0.25",
      "-0",
      "+0",
      "+-0.5",
      "0.3333333333333333",
      "1.0000000000000002",
      "0.99999999999999989",
      "1e-5",
      "2e-1",
      "1E0",
      "00.5",
      "0.5.",
      "x",
      "0x",
      "nan(1)",
      ".",
      "0.125",
  };
  static constexpr std::array<std::string_view, 16> kCounts = {
      "0",  "1",  "2",          "3",
      "5",  "8",  "12",         "+6",
      "-1", "00", "4294967296", "99999999999999999999",
      "x",  "5x", "1e2",        "7\v",
  };
  /// Comment lines: the text before and after a count from kCounts, or
  /// no count at all.
  struct Comment {
    std::string_view before;
    std::string_view after;
    bool count;
  };
  static constexpr std::array<Comment, 10> kComments = {{
      {"# nodes ", "", true},
      {"#nodes ", "", true},
      {"# nodes ", " extra", true},
      {"##nodes#", "", true},
      {"#\tnodes\t", "", true},
      {"# Nodes ", "", true},
      {"# nodes ", "#", true},
      {"# comment ", "", true},
      {"# nodes", "", false},
      {"#", "", false},
  }};

  template <std::size_t N>
  std::string Pick(const std::array<std::string_view, N>& pool) {
    return std::string(pool[rng_.UniformInt(N)]);
  }

  std::string Decorate(std::string token) {
    if (rng_.Bernoulli(0.05)) token += Pick(kTokenEnds);
    return token;
  }

  std::string Id() {
    if (rng_.Bernoulli(0.05)) return Pick(kOddIds);
    return std::to_string(rng_.UniformInt(8));
  }

  std::string Line() {
    const double kind = rng_.UniformDouble();
    if (kind < 0.1) return Pick(kBlank);
    if (kind < 0.2) {
      const Comment& comment = kComments[rng_.UniformInt(kComments.size())];
      return std::string(comment.before) +
             (comment.count ? Pick(kCounts) : std::string()) +
             std::string(comment.after);
    }
    std::vector<std::string> fields;
    if (!pairs_.empty() && rng_.Bernoulli(0.15)) {
      // A pair already listed, in either orientation.
      std::pair<std::string, std::string> pair =
          pairs_[rng_.UniformInt(pairs_.size())];
      if (rng_.Bernoulli(0.5)) std::swap(pair.first, pair.second);
      fields = {pair.first, pair.second};
    } else {
      fields = {Id(), Id()};
      pairs_.emplace_back(fields[0], fields[1]);
    }
    fields.push_back(rng_.Bernoulli(0.8)
                         ? Pick(kProbabilities)
                         : StrFormat("%.17g", rng_.UniformDouble()));
    if (kind < 0.27) {
      fields.pop_back();  // two fields
    } else if (kind < 0.34) {
      fields.push_back(Pick(kProbabilities));  // four fields
    }
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      // Now and then a '\r', '\v' or '\f' stands where a break belongs;
      // it joins the two fields into one.
      if (i > 0) {
        line += rng_.Bernoulli(0.03) ? Pick(kTokenEnds) : Pick(kBreaks);
      }
      line += Decorate(fields[i]);
    }
    return line;
  }

  Rng rng_;
  std::vector<std::pair<std::string, std::string>> pairs_;
};

TEST(IoParserTest, MatchesTheOracleOnHostileEdgeLists) {
  constexpr std::size_t kInputs = 100000;
  HostileEdgeLists inputs(2018);
  std::size_t compared = 0;
  std::size_t divergent = 0;
  std::size_t graphs = 0;
  while (compared < kInputs) {
    const std::string text = inputs.Next();
    const Result<UncertainGraph> got = ParseEdgeList(text, "fuzz.edges");
    // Cut into blocks, the parse gives the same graph or error: the
    // oracle's where the two agree by design.
    ASSERT_TRUE(SameAtEveryCut(text, "fuzz.edges", got))
        << "input " << compared << ": '" << Escaped(text) << "'";
    if (HasDeliberateDivergence(text)) {
      // The oracle wraps a wide id; the parser must refuse the input.
      ++divergent;
      ASSERT_FALSE(got.ok()) << Escaped(text);
      ASSERT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(SameOutcome(got, OracleParse(text, "fuzz.edges")))
        << "input " << compared << ": '" << Escaped(text) << "'";
    if (got.ok()) ++graphs;
    ++compared;
  }
  // Wide ids stay a small share, and enough inputs parse to a graph for
  // the bitwise comparison to carry weight.
  EXPECT_LT(divergent, kInputs / 10);
  EXPECT_GT(graphs, kInputs / 10);
}

TEST(IoParserTest, ErrorsAreReportedInTheOraclesOrder) {
  // The first syntax error or duplicate pair in file order, then the
  // first out-of-range node, self-loop or bad probability.
  const std::pair<std::string_view, std::string_view> cases[] = {
      // A duplicate before a syntax error.
      {"0 1 0.5\n1 0 0.5\n0 1\n", "order.edges:2: duplicate edge (1, 0)"},
      // A self-loop before a syntax error.
      {"0 0 0.5\n0 1\n", "order.edges:2: expected 'u v p', got '0 1'"},
      // A bad probability before a syntax error.
      {"0 1 1.5\n1 2 x\n", "order.edges:2: malformed edge line '1 2 x'"},
      // An out-of-range node before a duplicate.
      {"# nodes 2\n0 5 0.5\n1 0 0.5\n0 1 0.5\n",
       "order.edges:4: duplicate edge (0, 1)"},
      // A self-loop before a duplicate; repeated self-loops are no pair.
      {"0 1 0.5\n2 2 0.5\n2 2 0.5\n1 0 0.5\n",
       "order.edges:4: duplicate edge (1, 0)"},
      // Descending pairs take the sorting path; the first repeat wins.
      {"5 4 0.5\n2 1 0.5\n1 2 0.5\n4 5 0.5\n",
       "order.edges:3: duplicate edge (1, 2)"},
      {"3 4 0.5\n1 2 0.5\n4 3 0.5\n2 1 0.5\n",
       "order.edges:3: duplicate edge (4, 3)"},
      // Semantic errors in file order.
      {"0 0 0.5\n0 3 2\n", "order.edges:1: self-loop at node 0"},
      {"# header\n\n0 1 0.5\n1 2 1.5\n",
       "order.edges:4: probability 1.5 for edge (1, 2) outside [0, 1]"},
      // A header after the edges still sets the node count.
      {"0 1 0.5\n1 2 0.5\n# nodes 2\n",
       "order.edges:2: edge (1, 2) out of range for 2 nodes"},
  };
  for (const auto& [text, message] : cases) {
    const Result<UncertainGraph> got = ParseEdgeList(text, "order.edges");
    EXPECT_TRUE(SameOutcome(got, OracleParse(text, "order.edges")))
        << Escaped(text);
    EXPECT_TRUE(SameAtEveryCut(text, "order.edges", got)) << Escaped(text);
    ASSERT_FALSE(got.ok()) << Escaped(text);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), message) << Escaped(text);
  }
}

// ---------------------------------------------------------------------------
// Block edges

/// A comment line of `bytes` bytes, its newline included (at least 2).
std::string Filler(std::size_t bytes) {
  return "#" + std::string(bytes - 2, 'x') + "\n";
}

TEST(IoParserTest, BlockEdgesKeepTheOraclesOutcome) {
  // Every case at every cut must give the oracle's graph or error, which
  // is the message shown, or else a graph of the node count shown. The
  // filler line is longer than the largest block, so what stands on each
  // side of it lies in different blocks.
  const std::string filler = Filler(70);
  struct Case {
    std::string text;
    std::string_view message;
    NodeId nodes;
  };
  const Case cases[] = {
      // A duplicate pair in an earlier block than a syntax error, and the
      // other way round.
      {"0 1 0.5\n1 0 0.5\n" + filler + "0 1\n",
       "cut.edges:2: duplicate edge (1, 0)", 0},
      {"0 1 0.5\n" + filler + "1 2\n" + filler + "1 0 0.5\n",
       "cut.edges:3: expected 'u v p', got '1 2'", 0},
      // Both blocks ascend; the second repeats the first's pair.
      {"0 1 0.5\n1 2 0.5\n" + filler + "0 1 0.5\n",
       "cut.edges:4: duplicate edge (0, 1)", 0},
      // Blocks in descending order with no repeat.
      {"4 5 0.5\n" + filler + "2 3 0.5\n" + filler + "0 1 0.5\n", "", 6},
      // `# nodes` headers in two blocks: the last one wins.
      {"# nodes 9\n0 1 0.5\n" + filler + "# nodes 4\n" + filler +
           "2 3 0.5\n",
       "", 4},
      // The max id first seen in a later block, and seen again after it.
      {"0 1 0.5\n" + filler + "1 6 0.5\n" + filler + "2 6 0.5\n" + filler,
       "", 7},
      // An id that only a later header makes out of range.
      {"0 5 0.5\n" + filler + "# nodes 3\n",
       "cut.edges:1: edge (0, 5) out of range for 3 nodes", 0},
      // Semantic errors in file order across blocks.
      {"0 1 0.5\n" + filler + "2 2 0.5\n" + filler + "1 2 1.5\n",
       "cut.edges:3: self-loop at node 2", 0},
      // Blocks of nothing but blank lines and comments, between edges.
      {"0 1 0.5\n" + std::string(150, '\n') + filler + filler +
           " \t\r\n1 2 0.25\n",
       "", 3},
      // No trailing newline after an edge, a header or a syntax error.
      {"0 1 0.5\n" + filler + "1 2 0.25", "", 3},
      {"0 1 0.5\n" + filler + "# nodes 5", "", 5},
      {"0 1 0.5\n" + filler + "1 2", "cut.edges:3: expected 'u v p', got '1 2'",
       0},
  };
  for (const Case& c : cases) {
    const Result<UncertainGraph> want = OracleParse(c.text, "cut.edges");
    EXPECT_TRUE(SameOutcome(ParseEdgeList(c.text, "cut.edges"), want))
        << Escaped(c.text);
    EXPECT_TRUE(SameAtEveryCut(c.text, "cut.edges", want)) << Escaped(c.text);
    if (c.message.empty()) {
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(want->num_nodes(), c.nodes) << Escaped(c.text);
    } else {
      ASSERT_FALSE(want.ok()) << Escaped(c.text);
      EXPECT_EQ(want.status().message(), c.message);
    }
  }
  // The node-count policy names the first line with the max id, which
  // lies in a later block than the first edge.
  const std::string wide = "0 1 0.5\n" + filler + "5 20000000 0.5\n" +
                           filler + "1 20000000 0.5\n";
  const Result<UncertainGraph> limit = ParseEdgeList(wide, "cut.edges");
  ASSERT_FALSE(limit.ok());
  EXPECT_EQ(limit.status().message(),
            "cut.edges:3: node id 20000000 makes 20000001 nodes, more than "
            "16777222 (2 per edge plus 2^24 isolated vertices)");
  EXPECT_TRUE(SameAtEveryCut(wide, "cut.edges", limit));
}

TEST(IoParserTest, CarriageReturnsSplitFromTheirNewlines) {
  // Led by 2 to 65 bytes of comment, the "\r\n" line ends fall at every
  // offset within a block of each size, so some block ends between a
  // '\r' and its '\n'.
  for (std::size_t lead = 2; lead < 66; ++lead) {
    const std::string text = Filler(lead) +
                             "0 1 0.5\r\n1 2 0.25\r\n\r\n# nodes 4\r\n"
                             "2 3 0\r";
    const Result<UncertainGraph> want = OracleParse(text, "crlf.edges");
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(want->num_nodes(), 4u);
    EXPECT_TRUE(SameAtEveryCut(text, "crlf.edges", want)) << Escaped(text);
  }
}

/// A path over `nodes` vertices written one edge a line, a comment and a
/// blank line after every 97th edge; descending when `reversed`.
std::string PathText(NodeId nodes, bool reversed) {
  Rng rng(7);
  std::string text = StrFormat("# generated\n# nodes %u\n", nodes);
  for (NodeId i = 0; i + 1 < nodes; ++i) {
    const NodeId u = reversed ? nodes - 2 - i : i;
    text += StrFormat("%u %u %.17g\n", u, u + 1, rng.UniformDouble());
    if (i % 97 == 0) text += "# a comment mid-file\n\n";
  }
  return text;
}

TEST(IoParserTest, ManyBlocksOnSeveralWorkers) {
  // ~90 KB cut into 64-byte blocks: enough work that the scan runs on
  // spawned workers, up to the host's CPUs. The comments mid-file move
  // later blocks' edges down in the merge.
  for (const bool reversed : {false, true}) {
    const std::string text = PathText(3000, reversed);
    const Result<UncertainGraph> want = OracleParse(text, "many.edges");
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(SameAtEveryCut(text, "many.edges", want));
    // One bad line at a third, a half and the end of the file.
    for (const std::string_view bad :
         {"0 1\n", "5 4 0.5\n", "7 7 0.5\n", "1 2 1.5\n", "9 3000 0.5\n"}) {
      for (const std::size_t at :
           {text.find('\n', text.size() / 3) + 1,
            text.find('\n', text.size() / 2) + 1, text.size()}) {
        const std::string broken =
            text.substr(0, at) + std::string(bad) + text.substr(at);
        const Result<UncertainGraph> error = OracleParse(broken, "many.edges");
        ASSERT_FALSE(error.ok()) << Escaped(bad);
        EXPECT_TRUE(SameAtEveryCut(broken, "many.edges", error))
            << Escaped(bad) << " at " << at;
      }
    }
  }
}

TEST(IoParserTest, WorkersAllocateNothingPerLine) {
  // Each block scans into the slots its caller reserved; what the parse
  // allocates is per block and per graph, not per line.
  const std::string text = PathText(50000, false);
  const std::uint64_t before = obs::TotalAllocStats().allocs;
  const Result<UncertainGraph> graph = internal::ParseEdgeListBlocks(
      text, "alloc.edges", 2, std::size_t{1} << 12);
  const std::uint64_t allocs = obs::TotalAllocStats().allocs - before;
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_edges(), 49999u);
  EXPECT_LT(allocs, 100u);
}

// ---------------------------------------------------------------------------
// Deliberate divergences from the oracle

TEST(IoParserTest, NodeIdsAndCountsThatDoNotFitNodeIdAreRejected) {
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"4294967296 3 0.5\n",
       "wide.edges:1: node id 4294967296 does not fit NodeId (ids must be "
       "below 4294967295)"},
      {"0 1 0.5\n1 4294967295 0.5\n",
       "wide.edges:2: node id 4294967295 does not fit NodeId (ids must be "
       "below 4294967295)"},
      {"0 1 0.5\n\n9223372036854775807 2 0.5\n",
       "wide.edges:3: node id 9223372036854775807 does not fit NodeId (ids "
       "must be below 4294967295)"},
      {"# nodes 4294967297\n0 1 0.5\n",
       "wide.edges:1: node count 4294967297 does not fit NodeId (at most "
       "4294967295)"},
  };
  for (const auto& [text, message] : cases) {
    // The oracle wraps the id or count and never names this line.
    const Result<UncertainGraph> old = OracleParse(text, "wide.edges");
    EXPECT_TRUE(old.ok() || old.status().message() != message);
    const Result<UncertainGraph> got = ParseEdgeList(text, "wide.edges");
    ASSERT_FALSE(got.ok()) << Escaped(text);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), message);
  }
  // The oracle loads the first case as the edge (0, 3).
  const Result<UncertainGraph> wrapped =
      OracleParse("4294967296 3 0.5\n", "wide.edges");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->edge(0).u, 0u);
}

TEST(IoParserTest, NodeCountsPastTheIsolatedVertexLimitAreRejected) {
  // The oracle would allocate these counts; ParseEdgeList refuses them
  // before anything is sized by them, naming the line that set them.
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"0 3000000000 0.5\n",
       "big.edges:1: node id 3000000000 makes 3000000001 nodes, more than "
       "16777218 (2 per edge plus 2^24 isolated vertices)"},
      {"# nodes 4000000000\n0 1 0.5\n",
       "big.edges:1: node count 4000000000 is more than 16777218 (2 per "
       "edge plus 2^24 isolated vertices)"},
      // One past the limit.
      {"# nodes 16777219\n0 1 0.5\n",
       "big.edges:1: node count 16777219 is more than 16777218 (2 per edge "
       "plus 2^24 isolated vertices)"},
      // The first line with the max id; the last header.
      {"0 1 0.5\n\n5 20000000 0.5\n1 20000000 0.5\n",
       "big.edges:3: node id 20000000 makes 20000001 nodes, more than "
       "16777222 (2 per edge plus 2^24 isolated vertices)"},
      {"# nodes 5\n0 1 0.5\n# nodes 3000000000\n",
       "big.edges:3: node count 3000000000 is more than 16777218 (2 per "
       "edge plus 2^24 isolated vertices)"},
  };
  for (const auto& [text, message] : cases) {
    const Result<UncertainGraph> got = ParseEdgeList(text, "big.edges");
    ASSERT_FALSE(got.ok()) << Escaped(text);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), message);
  }
  // Isolated vertices within the limit still load.
  const Result<UncertainGraph> sparse =
      ParseEdgeList("# nodes 100000\n0 1 0.5\n", "big.edges");
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(sparse->num_nodes(), 100000u);
}

TEST(IoParserTest, NulByteDoesNotEndAToken) {
  const std::string text("0 1\0junk 0.5\n", 13);
  const Result<UncertainGraph> old = OracleParse(text, "nul.edges");
  ASSERT_TRUE(old.ok());  // strtoll stopped at the NUL and read "1"
  const Result<UncertainGraph> got = ParseEdgeList(text, "nul.edges");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.status().message(),
            "nul.edges:1: malformed edge line '0 1\\0junk 0.5'");
  EXPECT_FALSE(ParseInt(std::string_view("1\0", 2)).ok());
  EXPECT_FALSE(ParseDouble(std::string_view("0.5\0", 4)).ok());
}

TEST(IoParserTest, SubnormalProbabilitiesAreValues) {
  const std::string_view text =
      "0 1 1e-310\n1 2 4.9406564584124654e-324\n2 3 0x1p-1074\n"
      "3 4 2.2250738585072009e-308\n";
  // strtod flags each of these ERANGE, so the oracle refuses line 1.
  const Result<UncertainGraph> old = OracleParse(text, "sub.edges");
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().message(),
            "sub.edges:1: malformed edge line '0 1 1e-310'");
  const Result<UncertainGraph> got = ParseEdgeList(text, "sub.edges");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_edges(), 4u);
  EXPECT_EQ(Bits(got->edge(0).p), Bits(1e-310));
  EXPECT_EQ(Bits(got->edge(1).p), Bits(0x1p-1074));
  EXPECT_EQ(Bits(got->edge(2).p), Bits(0x1p-1074));
  EXPECT_EQ(Bits(got->edge(3).p), Bits(DBL_MIN - 0x1p-1074));
  // A negative subnormal parses as well; the builder refuses it as a
  // probability.
  const Result<UncertainGraph> negative =
      ParseEdgeList("0 1 -1e-310\n", "sub.edges");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().message(),
            "sub.edges:1: probability -1e-310 for edge (0, 1) outside [0, 1]");
}

// ---------------------------------------------------------------------------
// Exact re-read of written probabilities

TEST(IoParserTest, WrittenProbabilitiesReadBackBitForBit) {
  std::vector<double> probabilities = {
      0.0,   1.0,     0.1 + 0.2, 1.0 - 0x1p-53, 0x1p-1074,
      DBL_MIN, 1e-300, -0.0,     0.5,           std::nextafter(0.5, 0.0),
  };
  Rng rng(2018);
  for (int i = 0; i < 2000; ++i) probabilities.push_back(rng.UniformDouble());
  // A path: edge i joins i and i + 1.
  const auto nodes = static_cast<NodeId>(probabilities.size() + 1);
  UncertainGraphBuilder builder(nodes);
  for (NodeId i = 0; i + 1 < nodes; ++i) {
    ASSERT_TRUE(builder.AddEdge(i, i + 1, probabilities[i]).ok());
  }
  const Result<UncertainGraph> written = std::move(builder).Build();
  ASSERT_TRUE(written.ok());

  const std::string path = testing::TempDir() + "/chameleon_io_exact.edges";
  ASSERT_TRUE(WriteEdgeList(*written, path).ok());
  const Result<UncertainGraph> read = ReadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->num_nodes(), nodes);
  ASSERT_EQ(read->num_edges(), probabilities.size());
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    EXPECT_EQ(read->edge(static_cast<EdgeId>(i)).u, i);
    EXPECT_EQ(Bits(read->edge(static_cast<EdgeId>(i)).p),
              Bits(probabilities[i]))
        << StrFormat("edge %zu: wrote %a", i, probabilities[i]);
  }
}

TEST(IoParserTest, ReadsAPipeOfUnknownSize) {
  // A FIFO has no size up front, so the read buffer grows as data comes.
  const std::string path = testing::TempDir() + "/chameleon_io_pipe.edges";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::string text = "# nodes 20001\n";
  for (NodeId v = 1; v <= 20000; ++v) text += StrFormat("0 %u 0.5\n", v);
  ASSERT_GT(text.size(), std::size_t{1} << 16);  // more than one buffer
  // ReadEdgeList's open is the other end this open waits for. A reader
  // that stops early must fail the checks below, not kill the test.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
  });
  const Result<UncertainGraph> read = ReadEdgeList(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->num_nodes(), 20001u);
  EXPECT_EQ(read->num_edges(), 20000u);
}

}  // namespace
}  // namespace chameleon::graph
