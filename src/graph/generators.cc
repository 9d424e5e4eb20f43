#include "chameleon/graph/generators.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <unordered_set>
#include <utility>

#include "chameleon/util/string_util.h"

namespace chameleon::graph {
namespace {

Status ValidateOptions(const RandomGraphOptions& options) {
  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  if (!(options.nodes >= 2 && options.nodes <= kMaxNodes)) {
    return Status::InvalidArgument(StrFormat(
        "nodes = %lld must be in [2, %lld]",
        static_cast<long long>(options.nodes),
        static_cast<long long>(kMaxNodes)));
  }
  if (!(options.avg_degree >= 0.0 && std::isfinite(options.avg_degree))) {
    return Status::InvalidArgument(StrFormat(
        "avg_degree = %g must be finite and >= 0", options.avg_degree));
  }
  const auto n = static_cast<double>(options.nodes);
  if (options.avg_degree * n / 2.0 > n * (n - 1.0) / 2.0) {
    return Status::InvalidArgument(StrFormat(
        "avg_degree = %g asks for more edges than the %.0f pairs of %lld "
        "nodes",
        options.avg_degree, n * (n - 1.0) / 2.0,
        static_cast<long long>(options.nodes)));
  }
  if (!(0.0 <= options.p_min && options.p_min <= options.p_max &&
        options.p_max <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "p_min = %g, p_max = %g must satisfy 0 <= p_min <= p_max <= 1",
        options.p_min, options.p_max));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<UncertainEdge>> RandomEdges(
    const RandomGraphOptions& options, Rng& rng) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  const auto nodes = static_cast<NodeId>(options.nodes);
  const auto target = static_cast<std::size_t>(
      options.avg_degree * static_cast<double>(nodes) / 2.0);
  const std::size_t max_attempts = target * 20 + 100;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(target * 2);
  std::vector<UncertainEdge> edges;
  edges.reserve(target);
  for (std::size_t attempts = 0;
       edges.size() < target && attempts < max_attempts; ++attempts) {
    auto u = static_cast<NodeId>(rng.UniformInt(nodes));
    auto v = static_cast<NodeId>(rng.UniformInt(nodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
      continue;
    }
    edges.push_back({u, v, rng.Uniform(options.p_min, options.p_max)});
  }
  return edges;
}

Result<UncertainGraph> RandomGraph(const RandomGraphOptions& options,
                                   Rng& rng) {
  Result<std::vector<UncertainEdge>> edges = RandomEdges(options, rng);
  if (!edges.ok()) return edges.status();
  UncertainGraphBuilder builder(static_cast<NodeId>(options.nodes));
  builder.Reserve(edges->size());
  for (const UncertainEdge& e : *edges) {
    CHAMELEON_RETURN_IF_ERROR(builder.AddEdge(e.u, e.v, e.p));
  }
  return std::move(builder).Build();
}

}  // namespace chameleon::graph
