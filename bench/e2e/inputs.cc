#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "chameleon/util/string_util.h"
#include "common.h"

namespace chameleon::bench_e2e {
namespace {

std::uint64_t PairKey(std::uint32_t u, std::uint32_t v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

/// Union-find with path halving and union by size.
class UnionFind {
 public:
  void Reset(std::uint32_t n) {
    parent_.resize(n);
    size_.assign(n, 1);
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t Find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(std::uint32_t a, std::uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

/// Visits the union of two sorted edge lists in (u, v) order, passing
/// each pair's probability on both sides (0 where it is absent).
template <typename Fn>
void ForEachUnionEdge(const EdgeList& a, const EdgeList& b, Fn&& fn) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.edges.size() || j < b.edges.size()) {
    const bool take_a =
        j == b.edges.size() ||
        (i < a.edges.size() && PairKey(a.edges[i].u, a.edges[i].v) <=
                                   PairKey(b.edges[j].u, b.edges[j].v));
    const bool take_b =
        i == a.edges.size() ||
        (j < b.edges.size() && PairKey(b.edges[j].u, b.edges[j].v) <=
                                   PairKey(a.edges[i].u, a.edges[i].v));
    const Edge& e = take_a ? a.edges[i] : b.edges[j];
    fn(e.u, e.v, take_a ? a.edges[i].p : 0.0, take_b ? b.edges[j].p : 0.0);
    if (take_a) ++i;
    if (take_b) ++j;
  }
}

}  // namespace

EdgeList GenerateGraph(const GraphSpec& spec, std::uint64_t seed) {
  std::uint64_t state =
      HashPair(seed, (static_cast<std::uint64_t>(spec.nodes) << 32) ^
                         (static_cast<std::uint64_t>(spec.edges) << 2) ^
                         static_cast<std::uint64_t>(spec.shape));

  std::vector<double> cumulative;
  if (spec.shape == GraphShape::kChungLu) {
    cumulative.resize(spec.nodes);
    double total = 0.0;
    const double exponent = -1.0 / (spec.gamma - 1.0);
    for (std::uint32_t i = 0; i < spec.nodes; ++i) {
      total += std::pow(static_cast<double>(i) + 1.0, exponent);
      cumulative[i] = total;
    }
  }
  const auto draw_node = [&]() -> std::uint32_t {
    if (spec.shape == GraphShape::kErdosRenyi) {
      return static_cast<std::uint32_t>(((SplitMix64(state) >> 32) *
                                         spec.nodes) >>
                                        32);
    }
    const double x = UnitInterval(SplitMix64(state)) * cumulative.back();
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cumulative.begin(), spec.nodes - 1));
  };

  // Rejection sampling keeps every accepted pair uniform over the shape's
  // pair distribution; the key list is sorted before probabilities are
  // drawn, so the result never depends on hash-set iteration order.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * spec.edges);
  std::vector<std::uint64_t> keys;
  keys.reserve(spec.edges);
  while (keys.size() < spec.edges) {
    const std::uint32_t u = draw_node();
    const std::uint32_t v = draw_node();
    if (u == v) continue;
    const std::uint64_t key = PairKey(u, v);
    if (seen.insert(key).second) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());

  EdgeList list;
  list.nodes = spec.nodes;
  list.edges.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    const double p =
        spec.p_lo + (spec.p_hi - spec.p_lo) * UnitInterval(SplitMix64(state));
    list.edges.push_back(Edge{static_cast<std::uint32_t>(key >> 32),
                              static_cast<std::uint32_t>(key & 0xffffffffu),
                              std::round(p * 1e6) / 1e6});
  }
  return list;
}

std::string FormatEdgeList(const EdgeList& list) {
  std::string text = StrFormat("# nodes %u\n", list.nodes);
  text.reserve(text.size() + 24 * list.edges.size());
  char line[64];
  for (const Edge& e : list.edges) {
    const int len = std::snprintf(line, sizeof(line), "%u %u %.6f\n", e.u,
                                  e.v, e.p);
    text.append(line, static_cast<std::size_t>(len));
  }
  return text;
}

Result<EdgeList> ParseEdgeListText(std::string_view text) {
  EdgeList list;
  bool declared = false;
  std::uint32_t max_node = 0;
  std::size_t line_number = 0;
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    ++line_number;
    line = StripWhitespace(line);
    if (line.empty()) continue;
    std::vector<std::string> tokens = SplitTokens(line, " \t#");
    if (line.front() == '#') {
      if (tokens.size() == 2 && tokens[0] == "nodes") {
        std::uint32_t n = 0;
        const auto [end, ec] = std::from_chars(
            tokens[1].data(), tokens[1].data() + tokens[1].size(), n);
        if (ec != std::errc() || end != tokens[1].data() + tokens[1].size()) {
          return Status::InvalidArgument(
              StrFormat("line %zu: bad nodes header", line_number));
        }
        list.nodes = n;
        declared = true;
      }
      continue;
    }
    Edge edge;
    bool ok = tokens.size() == 3;
    if (ok) {
      const std::string& su = tokens[0];
      const std::string& sv = tokens[1];
      const std::string& sp = tokens[2];
      const auto ru = std::from_chars(su.data(), su.data() + su.size(), edge.u);
      const auto rv = std::from_chars(sv.data(), sv.data() + sv.size(), edge.v);
      const auto rp = std::from_chars(sp.data(), sp.data() + sp.size(), edge.p);
      ok = ru.ec == std::errc() && ru.ptr == su.data() + su.size() &&
           rv.ec == std::errc() && rv.ptr == sv.data() + sv.size() &&
           rp.ec == std::errc() && rp.ptr == sp.data() + sp.size();
    }
    if (!ok) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected 'u v p'", line_number));
    }
    if (edge.u == edge.v) {
      return Status::InvalidArgument(
          StrFormat("line %zu: self-loop on %u", line_number, edge.u));
    }
    if (edge.u > edge.v) std::swap(edge.u, edge.v);
    max_node = std::max(max_node, edge.v);
    list.edges.push_back(edge);
  }
  if (!declared) {
    list.nodes = list.edges.empty() ? 0 : max_node + 1;
  } else if (!list.edges.empty() && max_node >= list.nodes) {
    return Status::InvalidArgument(
        StrFormat("node %u outside the declared %u nodes", max_node,
                  list.nodes));
  }
  std::sort(list.edges.begin(), list.edges.end(),
            [](const Edge& a, const Edge& b) {
              return PairKey(a.u, a.v) < PairKey(b.u, b.v);
            });
  for (std::size_t i = 1; i < list.edges.size(); ++i) {
    if (list.edges[i - 1].u == list.edges[i].u &&
        list.edges[i - 1].v == list.edges[i].v) {
      return Status::InvalidArgument(StrFormat(
          "duplicate edge (%u, %u)", list.edges[i].u, list.edges[i].v));
    }
  }
  return list;
}

double NoiseL1(const EdgeList& original, const EdgeList& published) {
  double sum = 0.0;
  std::size_t count = 0;
  ForEachUnionEdge(original, published,
                   [&](std::uint32_t, std::uint32_t, double p, double q) {
                     sum += std::fabs(q - p);
                     ++count;
                   });
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

ReliabilityComparison CompareReliability(const EdgeList& a, const EdgeList& b,
                                         std::uint64_t seed,
                                         std::size_t pairs,
                                         std::size_t worlds) {
  struct UnionEdge {
    std::uint32_t u;
    std::uint32_t v;
    double pa;
    double pb;
  };
  std::vector<UnionEdge> merged;
  merged.reserve(std::max(a.edges.size(), b.edges.size()));
  ForEachUnionEdge(a, b,
                   [&](std::uint32_t u, std::uint32_t v, double pa, double pb) {
                     merged.push_back(UnionEdge{u, v, pa, pb});
                   });

  const std::uint32_t nodes = std::max(a.nodes, b.nodes);
  std::uint64_t pair_state = HashPair(seed, 0x7061697273ull);
  const auto draw_node = [&] {
    return static_cast<std::uint32_t>(
        ((SplitMix64(pair_state) >> 32) * nodes) >> 32);
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> terminals(pairs);
  for (auto& [u, v] : terminals) {
    u = draw_node();
    do {
      v = draw_node();
    } while (v == u);
  }

  std::vector<std::uint32_t> connected_a(pairs, 0);
  std::vector<std::uint32_t> connected_b(pairs, 0);
  UnionFind world_a;
  UnionFind world_b;
  for (std::size_t w = 0; w < worlds; ++w) {
    world_a.Reset(nodes);
    world_b.Reset(nodes);
    const std::uint64_t world_seed = HashPair(seed, w + 1);
    for (const UnionEdge& e : merged) {
      const double coin = UnitInterval(HashPair(world_seed, PairKey(e.u, e.v)));
      if (coin < e.pa) world_a.Union(e.u, e.v);
      if (coin < e.pb) world_b.Union(e.u, e.v);
    }
    for (std::size_t i = 0; i < pairs; ++i) {
      const auto [u, v] = terminals[i];
      if (world_a.Find(u) == world_a.Find(v)) ++connected_a[i];
      if (world_b.Find(u) == world_b.Find(v)) ++connected_b[i];
    }
  }

  ReliabilityComparison result;
  const auto n_worlds = static_cast<double>(worlds);
  for (std::size_t i = 0; i < pairs; ++i) {
    const double ra = static_cast<double>(connected_a[i]) / n_worlds;
    const double rb = static_cast<double>(connected_b[i]) / n_worlds;
    result.delta += std::fabs(ra - rb);
    result.mean_reliability_a += ra;
  }
  result.delta /= static_cast<double>(pairs);
  result.mean_reliability_a /= static_cast<double>(pairs);
  return result;
}

}  // namespace chameleon::bench_e2e
