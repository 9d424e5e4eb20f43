#include "chameleon/anonymize/rep_an.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "chameleon/obs/obs.h"
#include "chameleon/util/string_util.h"

namespace chameleon::anonymize {

Result<graph::UncertainGraph> ExtractRepresentative(
    const graph::UncertainGraph& graph, double threshold) {
  // Written so that NaN fails the check too.
  if (!(threshold <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "threshold = %g must be <= 1 (negative for the expected edge count)",
        threshold));
  }
  CHOBS_SPAN(span, "anonymize/rep_extract");
  const auto& edges = graph.edges();
  std::vector<char> keep(edges.size(), 0);
  if (threshold >= 0.0) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      keep[e] = edges[e].p >= threshold ? 1 : 0;
    }
  } else {
    // Expected-edge-count extraction: the round(Σp) most probable edges,
    // ties toward the earlier edge in canonical order. That order is
    // strict, so the first m after nth_element are the set a full sort
    // puts first, found in linear expected time.
    const std::size_t m = std::min<std::size_t>(
        edges.size(),
        static_cast<std::size_t>(std::llround(graph.expected_num_edges())));
    std::vector<EdgeId> order(edges.size());
    std::iota(order.begin(), order.end(), EdgeId{0});
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(m),
                     order.end(), [&](EdgeId a, EdgeId b) {
                       if (edges[a].p != edges[b].p) {
                         return edges[a].p > edges[b].p;
                       }
                       return a < b;
                     });
    for (std::size_t i = 0; i < m; ++i) keep[order[i]] = 1;
  }
  graph::UncertainGraphBuilder builder(graph.num_nodes());
  std::size_t kept = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!keep[e]) continue;
    CHAMELEON_RETURN_IF_ERROR(builder.AddEdge(edges[e].u, edges[e].v, 1.0));
    ++kept;
  }
  span.AddCount("kept_edges", kept);
  return std::move(builder).Build();
}

Result<AnonymizeResult> RepAnAnonymize(const graph::UncertainGraph& graph,
                                       const RepAnOptions& options) {
  Result<graph::UncertainGraph> representative =
      ExtractRepresentative(graph, options.threshold);
  if (!representative.ok()) return representative.status();

  // Boldi's deterministic obfuscation = the ME column on a p ∈ {0,1}
  // graph: structural-degree adversary, no reliability relevance.
  ChameleonOptions driver = options.driver;
  driver.adversary = privacy::AdversaryModel::kStructuralDegree;
  Result<AnonymizeResult> result =
      Anonymize(*representative, Variant::kME, driver);
  if (!result.ok()) return result.status();
  result->variant = Variant::kRepAn;
  return result;
}

}  // namespace chameleon::anonymize
