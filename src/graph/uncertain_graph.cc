#include "chameleon/graph/uncertain_graph.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "chameleon/obs/obs.h"
#include "chameleon/util/string_util.h"

namespace chameleon::graph {

double UncertainGraph::mean_probability() const {
  if (edges_.empty()) return 0.0;
  return expected_num_edges() / static_cast<double>(edges_.size());
}

double UncertainGraph::expected_num_edges() const {
  double total = 0.0;
  for (const UncertainEdge& e : edges_) total += e.p;
  return total;
}

Result<UncertainGraph> UncertainGraph::WithProbabilities(
    std::span<const double> probabilities) const {
  if (probabilities.size() != edges_.size()) {
    return Status::InvalidArgument(
        StrFormat("%zu probabilities for %zu edges", probabilities.size(),
                  edges_.size()));
  }
  UncertainGraph g;
  g.num_nodes_ = num_nodes_;
  g.edges_.reserve(edges_.size());
  g.expected_degrees_.assign(num_nodes_, 0.0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const UncertainEdge& e = edges_[i];
    const double p = probabilities[i];
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "probability %g for edge (%u, %u) outside [0, 1]", p, e.u, e.v));
    }
    g.edges_.push_back(UncertainEdge{e.u, e.v, p});
    g.expected_degrees_[e.u] += p;
    g.expected_degrees_[e.v] += p;
  }
  g.topology_ = topology_;
  return g;
}

UncertainGraphBuilder::UncertainGraphBuilder(NodeId num_nodes)
    : num_nodes_(num_nodes) {}

Status UncertainGraphBuilder::AddEdge(NodeId u, NodeId v, double p) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::InvalidArgument(
        StrFormat("edge (%u, %u) out of range for %u nodes", u, v,
                  num_nodes_));
  }
  if (u == v) {
    return Status::InvalidArgument(StrFormat("self-loop at node %u", u));
  }
  if (!(p >= 0.0 && p <= 1.0) || std::isnan(p)) {
    return Status::InvalidArgument(
        StrFormat("probability %g for edge (%u, %u) outside [0, 1]", p, u, v));
  }
  if (u > v) std::swap(u, v);
  edges_.push_back(UncertainEdge{u, v, p});
  return Status::OK();
}

Status UncertainGraphBuilder::AddEdges(std::vector<UncertainEdge> edges,
                                       std::size_t* rejected) {
  const std::size_t queued = edges_.size();
  if (queued == 0) {
    edges_ = std::move(edges);
  } else {
    edges_.insert(edges_.end(), edges.begin(), edges.end());
  }
  for (std::size_t i = queued; i < edges_.size(); ++i) {
    UncertainEdge& e = edges_[i];
    if (e.u >= num_nodes_ || e.v >= num_nodes_ || e.u == e.v ||
        !(e.p >= 0.0 && e.p <= 1.0)) {
      // AddEdge names the reason; it queues nothing it refuses.
      Status refused = AddEdge(e.u, e.v, e.p);
      edges_.resize(queued);
      *rejected = i - queued;
      return refused;
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  return Status::OK();
}

Result<UncertainGraph> UncertainGraphBuilder::Build() && {
  CHOBS_SPAN(span, "graph/build");
  const auto by_endpoints = [](const UncertainEdge& a, const UncertainEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  // Edge lists this library writes, and the generated ones, arrive sorted.
  if (!std::is_sorted(edges_.begin(), edges_.end(), by_endpoints)) {
    std::sort(edges_.begin(), edges_.end(), by_endpoints);
  }
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (edges_[i].u == edges_[i - 1].u && edges_[i].v == edges_[i - 1].v) {
      return Status::InvalidArgument(StrFormat(
          "multi-edge (%u, %u)", edges_[i].u, edges_[i].v));
    }
  }

  UncertainGraph g;
  g.num_nodes_ = num_nodes_;
  g.edges_ = std::move(edges_);

  // CSR in two passes: degree counting, then placement. The +1 is taken
  // in size_t: at 2^32 - 1 nodes it would wrap in NodeId.
  const std::size_t slots = std::size_t{num_nodes_} + 1;
  std::vector<std::size_t> degree(slots, 0);
  for (const UncertainEdge& e : g.edges_) {
    ++degree[e.u];
    ++degree[e.v];
  }
  auto topology = std::make_shared<UncertainGraph::Topology>();
  std::vector<std::size_t>& offsets = topology->offsets;
  std::vector<AdjEntry>& adjacency = topology->adjacency;
  offsets.assign(slots, 0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    offsets[v + 1] = offsets[v] + degree[v];
  }
  adjacency.resize(offsets[num_nodes_]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  g.expected_degrees_.assign(num_nodes_, 0.0);
  for (EdgeId i = 0; i < g.edges_.size(); ++i) {
    const UncertainEdge& e = g.edges_[i];
    adjacency[cursor[e.u]++] = AdjEntry{e.v, i};
    adjacency[cursor[e.v]++] = AdjEntry{e.u, i};
    g.expected_degrees_[e.u] += e.p;
    g.expected_degrees_[e.v] += e.p;
  }
  g.topology_ = std::move(topology);

  span.AddCount("nodes", num_nodes_);
  span.AddCount("edges", g.edges_.size());
  CHOBS_COUNT("graph/builds", 1);
  return g;
}

}  // namespace chameleon::graph
