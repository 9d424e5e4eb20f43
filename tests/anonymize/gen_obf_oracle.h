#ifndef CHAMELEON_TESTS_ANONYMIZE_GEN_OBF_ORACLE_H_
#define CHAMELEON_TESTS_ANONYMIZE_GEN_OBF_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file gen_obf_oracle.h
/// The slow GenObf attempt, kept only as a test oracle. It draws from the
/// same per-edge streams as GenObf, mirrored below, but rebuilds the
/// exclusion set and the eligible list per attempt, fully sorts the
/// (key, edge) pairs, sums the candidates' priorities in GenObf's fixed
/// blocks one edge at a time, rebuilds the published graph through
/// UncertainGraphBuilder, and verifies it with BuildDegreeDistributions
/// plus the distributions overload of VerifyObfuscation. The tests hold
/// a scratch attempt's p̃ to its published probabilities, and the graph a
/// search builds from a kept p̃ to its published graph.

namespace chameleon::anonymize {

/// GenObf's per-edge streams (anonymize/gen_obf.cc), mirrored: edge e's
/// stream for one purpose in the attempt whose seed is `seed`.
inline std::uint64_t OracleEdgeSeed(std::uint64_t seed, std::uint64_t mix,
                                    EdgeId e) {
  std::uint64_t state = seed ^ (mix * (std::uint64_t{e} + 1));
  return SplitMix64(state);
}

/// u_e in (0, 1) of edge e's selection key −ln(u_e)/Q^e.
inline double OracleKeyUniform(std::uint64_t seed, EdgeId e) {
  const std::uint64_t bits = OracleEdgeSeed(seed, 0xc2b2ae3d27d4eb4full, e);
  return (static_cast<double>(bits >> 12) + 0.5) * 0x1.0p-52;
}

/// Edge e's noise stream, PerturbProbability's rng.
inline Rng OracleNoiseRng(std::uint64_t seed, EdgeId e) {
  return Rng(OracleEdgeSeed(seed, 0x165667b19e3779f9ull, e));
}

/// GenObf's block of eligible positions for the priority partial sums.
inline constexpr std::size_t kOracleEdgeBlock = 4096;

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
  const std::uint64_t seed = rng();
  std::vector<std::pair<double, EdgeId>> keyed;
  keyed.reserve(eligible.size());
  for (const EdgeId e : eligible) {
    const double w = priorities[e];
    const double key = w > 0.0 ? -std::log(OracleKeyUniform(seed, e)) / w
                               : std::numeric_limits<double>::infinity();
    keyed.emplace_back(key, e);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.resize(want);
  std::vector<char> chosen(edges.size(), 0);
  for (const auto& [key, e] : keyed) chosen[e] = 1;

  double q_sum = 0.0;
  for (std::size_t begin = 0; begin < eligible.size();
       begin += kOracleEdgeBlock) {
    double partial = 0.0;
    const std::size_t end =
        std::min(eligible.size(), begin + kOracleEdgeBlock);
    for (std::size_t i = begin; i < end; ++i) {
      if (chosen[eligible[i]]) partial += priorities[eligible[i]];
    }
    q_sum += partial;
  }
  const double q_mean = want > 0 ? q_sum / static_cast<double>(want) : 0.0;

  std::vector<double> perturbed(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) perturbed[e] = edges[e].p;
  for (const auto& [key, e] : keyed) {
    const double scale =
        q_mean > 0.0 ? sigma * priorities[e] / q_mean : sigma;
    Rng noise = OracleNoiseRng(seed, e);
    perturbed[e] = PerturbProbability(perturbed[e], scale, options.noise,
                                      options.white_noise, noise);
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
  const std::vector<privacy::DegreeDistribution> dists =
      privacy::BuildDegreeDistributions(*published, options.threads);
  Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(*published, dists, verify);
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
