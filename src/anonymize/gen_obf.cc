#include "chameleon/anonymize/gen_obf.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>

#include "chameleon/obs/obs.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::anonymize {
namespace {

/// Written so that NaN fails every check (and ±inf the unbounded one):
/// ε and c feed size_t casts of ⌈ε/2·|V|⌉ and ⌈c·|E|⌉.
Status ValidateOptions(const GenObfOptions& options) {
  if (!(options.k > 1.0 && std::isfinite(options.k))) {
    return Status::InvalidArgument(
        StrFormat("k = %g must be finite and > 1", options.k));
  }
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon = %g must be in [0, 1]", options.epsilon));
  }
  if (!(options.candidate_fraction > 0.0 &&
        options.candidate_fraction <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("candidate_fraction = %g must be in (0, 1]",
                  options.candidate_fraction));
  }
  if (!(options.white_noise >= 0.0 && options.white_noise <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "white_noise = %g must be in [0, 1]", options.white_noise));
  }
  return Status::OK();
}

/// Indices of the h highest-uniqueness vertices; ties broken toward the
/// lower id so the exclusion set is a pure function of the scores.
std::vector<bool> ExcludeHardest(const std::vector<double>& uniqueness,
                                 std::size_t h) {
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

}  // namespace

Result<GenObfPlan> PlanGenObf(const graph::UncertainGraph& graph,
                              const std::vector<double>& uniqueness,
                              const GenObfOptions& options) {
  if (uniqueness.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("uniqueness has %zu scores for %u nodes", uniqueness.size(),
                  graph.num_nodes()));
  }
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  const auto& edges = graph.edges();

  // 1. Hardest-vertex exclusion: ⌈ε/2·|V|⌉ vertices, half the ε budget.
  GenObfPlan plan;
  plan.excluded_vertices = static_cast<std::size_t>(
      std::ceil(0.5 * options.epsilon * graph.num_nodes()));
  const std::vector<bool> excluded =
      ExcludeHardest(uniqueness, plan.excluded_vertices);
  plan.eligible.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!excluded[edges[e].u] && !excluded[edges[e].v]) {
      plan.eligible.push_back(static_cast<EdgeId>(e));
    }
  }
  plan.candidates = std::min(
      static_cast<std::size_t>(std::ceil(
          options.candidate_fraction * static_cast<double>(edges.size()))),
      plan.eligible.size());
  return plan;
}

Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const GenObfPlan& plan,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng) {
  if (priorities.size() != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("priorities has %zu entries for %zu edges",
                  priorities.size(), graph.num_edges()));
  }
  if (!(sigma > 0.0 && std::isfinite(sigma))) {
    return Status::InvalidArgument(
        StrFormat("sigma = %g must be finite and > 0", sigma));
  }
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  if (plan.candidates > plan.eligible.size() ||
      (!plan.eligible.empty() && plan.eligible.back() >= graph.num_edges())) {
    return Status::InvalidArgument("plan does not fit this graph");
  }
  CHOBS_SPAN(span, "anonymize/genobf");
  WallTimer timer;
  const auto& edges = graph.edges();
  const std::size_t want = plan.candidates;

  // 2. Q-weighted candidate selection without replacement: keep the
  // ⌈c|E|⌉ smallest exponential keys −log(u)/Q^e. Zero-priority edges
  // get an infinite key and are chosen only when everything else ran
  // out. Keys are drawn in edge order, so the draw sequence — and the
  // candidate set — is a pure function of the rng stream. The pairs are
  // distinct (edge ids are), so nth_element picks exactly the set a
  // full sort would.
  std::vector<char> chosen(edges.size(), 0);
  {
    std::vector<std::pair<double, EdgeId>> keyed;
    keyed.reserve(plan.eligible.size());
    for (const EdgeId e : plan.eligible) {
      const double u = 1.0 - rng.UniformDouble();  // (0, 1]
      const double w = priorities[e];
      const double key = w > 0.0 ? -std::log(u) / w
                                 : std::numeric_limits<double>::infinity();
      keyed.emplace_back(key, e);
    }
    std::nth_element(keyed.begin(),
                     keyed.begin() + static_cast<std::ptrdiff_t>(want),
                     keyed.end());
    for (std::size_t i = 0; i < want; ++i) chosen[keyed[i].second] = 1;
  }

  // 3. Perturb candidates in edge order (stable rng consumption). The
  // per-edge scale is σ·Q^e normalized by the candidate-mean priority.
  double q_sum = 0.0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (chosen[e]) q_sum += priorities[e];
  }
  const double q_mean = want > 0 ? q_sum / static_cast<double>(want) : 0.0;
  std::vector<double> perturbed(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    perturbed[e] = edges[e].p;
    if (!chosen[e]) continue;
    const double scale =
        q_mean > 0.0 ? sigma * priorities[e] / q_mean : sigma;
    perturbed[e] = PerturbProbability(perturbed[e], scale, options.noise,
                                      options.white_noise, rng);
  }
  Result<graph::UncertainGraph> published = graph.WithProbabilities(perturbed);
  if (!published.ok()) return published.status();

  // 4. Anonymity check via the existing (k,ε) verifier.
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
  attempt.excluded_vertices = plan.excluded_vertices;
  attempt.wall_ms = timer.ElapsedMillis();
  span.AddCount("candidates", want);
  span.AddCount("excluded", plan.excluded_vertices);
  return attempt;
}

Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const std::vector<double>& uniqueness,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng) {
  Result<GenObfPlan> plan = PlanGenObf(graph, uniqueness, options);
  if (!plan.ok()) return plan.status();
  return GenObf(graph, *plan, priorities, sigma, options, rng);
}

}  // namespace chameleon::anonymize
