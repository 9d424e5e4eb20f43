#ifndef CHAMELEON_GRAPH_UNCERTAIN_GRAPH_H_
#define CHAMELEON_GRAPH_UNCERTAIN_GRAPH_H_

#include <memory>
#include <span>
#include <vector>

#include "chameleon/graph/edge.h"
#include "chameleon/util/common.h"
#include "chameleon/util/status.h"

/// \file uncertain_graph.h
/// Immutable uncertain-graph container `G = (V, E, p)` with CSR adjacency.
/// Construction goes through UncertainGraphBuilder, which validates the
/// paper's graph model: undirected, no self-loops, no multi-edges,
/// probabilities in [0, 1]. A graph that differs from an existing one
/// only in its probabilities comes from WithProbabilities, which reuses
/// the topology instead of re-validating and re-sorting it. The CSR
/// offsets and adjacency are immutable once built, so WithProbabilities
/// and copies share them (a `shared_ptr<const>`, kept alive by every
/// graph that uses it) instead of copying them; each graph owns only its
/// edges and expected degrees.

namespace chameleon::graph {

/// CSR adjacency entry: the neighbor plus the index of the connecting
/// edge in edges() (so per-edge data like probabilities needs no lookup).
struct AdjEntry {
  NodeId neighbor = 0;
  EdgeId edge = 0;
};

class UncertainGraph {
 public:
  UncertainGraph() = default;

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }

  const std::vector<UncertainEdge>& edges() const { return edges_; }
  const UncertainEdge& edge(EdgeId e) const { return edges_[e]; }

  /// Neighbors of `v` (both endpoints see the edge), in increasing edge
  /// id: the order UncertainGraphBuilder sums expected degrees in, so a
  /// sum over this span in order reproduces expected_degree(v) bit for
  /// bit under any probabilities (the verifier's probability overload
  /// relies on it). Graphs that share a topology return the same storage.
  std::span<const AdjEntry> Neighbors(NodeId v) const {
    const std::vector<std::size_t>& offsets = topology_->offsets;
    return {topology_->adjacency.data() + offsets[v],
            offsets[v + 1] - offsets[v]};
  }

  /// Expected degree E[deg v] = sum of incident edge probabilities.
  double expected_degree(NodeId v) const { return expected_degrees_[v]; }
  const std::vector<double>& expected_degrees() const {
    return expected_degrees_;
  }

  /// Mean edge probability (Table I's "mean p"); 0 for the empty graph.
  double mean_probability() const;

  /// Sum over edges of p (expected number of edges).
  double expected_num_edges() const;

  /// The same vertices, edges and adjacency with `probabilities[e]` as
  /// edge e's probability. The result shares this graph's topology and
  /// stays valid after this graph is destroyed. Expected degrees are
  /// summed in edge order, as UncertainGraphBuilder sums them, so the
  /// result equals the graph UncertainGraphBuilder makes of the same
  /// edges bit for bit. A σ search calls it once, for the winning
  /// attempt's p̃; the attempts themselves build no graph.
  /// InvalidArgument unless there is one probability per edge, each in
  /// [0, 1] (NaN is rejected).
  Result<UncertainGraph> WithProbabilities(
      std::span<const double> probabilities) const;

 private:
  friend class UncertainGraphBuilder;

  /// CSR adjacency: v's entries are adjacency[offsets[v], offsets[v+1]).
  struct Topology {
    std::vector<std::size_t> offsets;
    std::vector<AdjEntry> adjacency;
  };

  NodeId num_nodes_ = 0;
  std::vector<UncertainEdge> edges_;
  std::shared_ptr<const Topology> topology_;
  std::vector<double> expected_degrees_;
};

class UncertainGraphBuilder {
 public:
  explicit UncertainGraphBuilder(NodeId num_nodes);

  /// Queues an undirected edge {u, v} with probability p. Validation
  /// errors (bad endpoints, self-loop, p outside [0, 1]) surface here;
  /// duplicate detection happens in Build().
  Status AddEdge(NodeId u, NodeId v, double p);

  /// Queues every edge of `edges` in order, as AddEdge queues each one,
  /// taking the vector over when nothing is queued yet, so a caller that
  /// filled it (the edge-list parser, on every worker) hands it on
  /// without a copy. On the first edge AddEdge refuses, returns that
  /// error, sets `*rejected` to the edge's index in `edges` and queues
  /// none of them.
  Status AddEdges(std::vector<UncertainEdge> edges, std::size_t* rejected);

  std::size_t num_queued_edges() const { return edges_.size(); }

  /// Makes room for `edges` more AddEdge calls without regrowing.
  void Reserve(std::size_t edges) { edges_.reserve(edges_.size() + edges); }

  /// Validates (no multi-edges), canonicalizes (u < v, edges sorted),
  /// builds CSR adjacency and expected degrees. The builder is consumed.
  Result<UncertainGraph> Build() &&;

 private:
  NodeId num_nodes_;
  std::vector<UncertainEdge> edges_;
};

}  // namespace chameleon::graph

#endif  // CHAMELEON_GRAPH_UNCERTAIN_GRAPH_H_
