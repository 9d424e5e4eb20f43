#ifndef CHAMELEON_TESTS_ANONYMIZE_GEN_OBF_ORACLE_H_
#define CHAMELEON_TESTS_ANONYMIZE_GEN_OBF_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file gen_obf_oracle.h
/// The GenObf attempt that PlanGenObf + the planned GenObf replaced,
/// kept only as a test oracle: exclusion and the eligible list rebuilt
/// per attempt, a full sort of the (key, edge) pairs followed by a
/// re-sort of the chosen ones by edge id, and the published graph
/// rebuilt through UncertainGraphBuilder.

namespace chameleon::anonymize {

inline std::vector<bool> OracleExcludeHardest(
    const std::vector<double>& uniqueness, std::size_t h) {
  std::vector<NodeId> order(uniqueness.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (uniqueness[a] != uniqueness[b]) return uniqueness[a] > uniqueness[b];
    return a < b;
  });
  std::vector<bool> excluded(uniqueness.size(), false);
  for (std::size_t i = 0; i < h && i < order.size(); ++i) {
    excluded[order[i]] = true;
  }
  return excluded;
}

inline Result<GenObfAttempt> OracleGenObf(
    const graph::UncertainGraph& graph, const std::vector<double>& uniqueness,
    const std::vector<double>& priorities, double sigma,
    const GenObfOptions& options, Rng& rng) {
  if (uniqueness.size() != graph.num_nodes() ||
      priorities.size() != graph.num_edges() || !(sigma > 0.0)) {
    return Status::InvalidArgument("oracle: bad arguments");
  }
  const auto& edges = graph.edges();

  const std::size_t h = static_cast<std::size_t>(
      std::ceil(0.5 * options.epsilon * graph.num_nodes()));
  const std::vector<bool> excluded = OracleExcludeHardest(uniqueness, h);

  std::vector<EdgeId> eligible;
  eligible.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!excluded[edges[e].u] && !excluded[edges[e].v]) {
      eligible.push_back(static_cast<EdgeId>(e));
    }
  }

  std::size_t want = static_cast<std::size_t>(
      std::ceil(options.candidate_fraction * static_cast<double>(edges.size())));
  want = std::min(want, eligible.size());
  std::vector<std::pair<double, EdgeId>> keyed;
  keyed.reserve(eligible.size());
  for (const EdgeId e : eligible) {
    const double u = 1.0 - rng.UniformDouble();  // (0, 1]
    const double w = priorities[e];
    const double key = w > 0.0 ? -std::log(u) / w
                               : std::numeric_limits<double>::infinity();
    keyed.emplace_back(key, e);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.resize(want);

  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  double q_sum = 0.0;
  for (const auto& [key, e] : keyed) q_sum += priorities[e];
  const double q_mean = want > 0 ? q_sum / static_cast<double>(want) : 0.0;

  std::vector<double> perturbed(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) perturbed[e] = edges[e].p;
  for (const auto& [key, e] : keyed) {
    const double scale =
        q_mean > 0.0 ? sigma * priorities[e] / q_mean : sigma;
    perturbed[e] = PerturbProbability(perturbed[e], scale, options.noise,
                                      options.white_noise, rng);
  }

  graph::UncertainGraphBuilder builder(graph.num_nodes());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    CHAMELEON_RETURN_IF_ERROR(
        builder.AddEdge(edges[e].u, edges[e].v, perturbed[e]));
  }
  Result<graph::UncertainGraph> published = std::move(builder).Build();
  if (!published.ok()) return published.status();

  privacy::ObfuscationOptions verify;
  verify.k = options.k;
  verify.epsilon = options.epsilon;
  verify.adversary = options.adversary;
  verify.threads = options.threads;
  verify.keep_per_vertex = false;
  Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(*published, verify);
  if (!certificate.ok()) return certificate.status();

  GenObfAttempt attempt;
  attempt.published = std::move(*published);
  attempt.certificate = std::move(*certificate);
  attempt.sigma = sigma;
  attempt.perturbed_edges = want;
  attempt.excluded_vertices = h;
  return attempt;
}

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_TESTS_ANONYMIZE_GEN_OBF_ORACLE_H_
