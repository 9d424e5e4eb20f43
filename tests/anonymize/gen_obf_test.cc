#include "chameleon/anonymize/gen_obf.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anonymize/gen_obf_oracle.h"
#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"

namespace chameleon::anonymize {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Random graph with distinct edges and p ~ U[0.1, 0.9].
UncertainGraph RandomGraph(NodeId nodes, std::size_t edges,
                           std::uint64_t seed) {
  Rng rng(seed);
  UncertainGraphBuilder builder(nodes);
  std::set<std::pair<NodeId, NodeId>> seen;
  while (seen.size() < edges) {
    auto u = static_cast<NodeId>(rng.UniformInt(nodes));
    auto v = static_cast<NodeId>(rng.UniformInt(nodes));
    if (u > v) std::swap(u, v);
    if (u == v || !seen.emplace(u, v).second) continue;
    EXPECT_TRUE(builder.AddEdge(u, v, rng.Uniform(0.1, 0.9)).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

std::vector<double> Uniqueness(const UncertainGraph& g) {
  const Result<privacy::UniquenessScores> scores =
      privacy::ComputeUniqueness(g, privacy::UniquenessOptions{});
  EXPECT_TRUE(scores.ok());
  return scores->scores;
}

void ExpectSameGraph(const UncertainGraph& got, const UncertainGraph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  std::vector<double> got_p;
  std::vector<double> want_p;
  for (std::size_t e = 0; e < want.num_edges(); ++e) {
    ASSERT_EQ(got.edges()[e].u, want.edges()[e].u);
    ASSERT_EQ(got.edges()[e].v, want.edges()[e].v);
    got_p.push_back(got.edges()[e].p);
    want_p.push_back(want.edges()[e].p);
  }
  EXPECT_EQ(std::memcmp(got_p.data(), want_p.data(),
                        want_p.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(got.expected_degrees().data(),
                        want.expected_degrees().data(),
                        want.num_nodes() * sizeof(double)),
            0);
}

void ExpectSameCertificate(const privacy::ObfuscationCertificate& got,
                           const privacy::ObfuscationCertificate& want) {
  EXPECT_EQ(got.not_obfuscated, want.not_obfuscated);
  EXPECT_EQ(got.obfuscated, want.obfuscated);
  EXPECT_TRUE(SameBits(got.epsilon_hat, want.epsilon_hat));
  EXPECT_TRUE(SameBits(got.min_entropy_bits, want.min_entropy_bits));
  EXPECT_TRUE(SameBits(got.mean_entropy_bits, want.mean_entropy_bits));
  EXPECT_EQ(got.distinct_omegas, want.distinct_omegas);
}

void ExpectSameAttempt(const GenObfAttempt& got, const GenObfAttempt& want) {
  ExpectSameGraph(got.published, want.published);
  ExpectSameCertificate(got.certificate, want.certificate);
  EXPECT_EQ(got.perturbed_edges, want.perturbed_edges);
  EXPECT_EQ(got.excluded_vertices, want.excluded_vertices);
  EXPECT_TRUE(SameBits(got.sigma, want.sigma));
}

/// One plan per (graph, options), then `seeds` attempts at σ cycling
/// through {0.05, 0.2, 0.7}: each must match the oracle's attempt from the
/// same stream, leave the stream in the same state, and match the
/// one-shot wrapper.
void CheckAgainstOracle(const UncertainGraph& g,
                        const std::vector<double>& uniqueness,
                        const std::vector<double>& priorities,
                        const GenObfOptions& options, int seeds) {
  const Result<GenObfPlan> plan = PlanGenObf(g, uniqueness, options);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  const double sigmas[] = {0.05, 0.2, 0.7};
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const double sigma = sigmas[seed % 3];
    Rng planned_rng(1000 + static_cast<std::uint64_t>(seed));
    Rng oracle_rng(1000 + static_cast<std::uint64_t>(seed));
    const Result<GenObfAttempt> planned =
        GenObf(g, *plan, priorities, sigma, options, planned_rng);
    const Result<GenObfAttempt> oracle =
        OracleGenObf(g, uniqueness, priorities, sigma, options, oracle_rng);
    ASSERT_TRUE(planned.ok()) << planned.status().message();
    ASSERT_TRUE(oracle.ok()) << oracle.status().message();
    ExpectSameAttempt(*planned, *oracle);
    EXPECT_EQ(planned_rng(), oracle_rng()) << "rng consumption differs";
    if (seed == 0) {
      Rng wrapper_rng(1000);
      const Result<GenObfAttempt> wrapped =
          GenObf(g, uniqueness, priorities, sigma, options, wrapper_rng);
      ASSERT_TRUE(wrapped.ok());
      ExpectSameAttempt(*wrapped, *oracle);
    }
  }
}

TEST(GenObfOracleTest, MatchesOracleAcrossSeedsFractionsAndNoiseModels) {
  const UncertainGraph g = RandomGraph(2000, 8000, 2000);
  const std::vector<double> uniqueness = Uniqueness(g);
  const Result<std::vector<double>> priorities =
      ComputeEdgePriorities(g, uniqueness, {});
  ASSERT_TRUE(priorities.ok());
  const double fractions[] = {1.0 / static_cast<double>(g.num_edges()), 0.3,
                              1.0};
  for (const NoiseModel noise :
       {NoiseModel::kMaxEntropy, NoiseModel::kAdditive}) {
    for (const double c : fractions) {
      SCOPED_TRACE(std::string(NoiseModelName(noise)) +
                   ", c = " + std::to_string(c));
      GenObfOptions options;
      options.k = 32.0;
      options.epsilon = 0.01;
      options.candidate_fraction = c;
      options.noise = noise;
      options.threads = 2;
      CheckAgainstOracle(g, uniqueness, *priorities, options, 20);
    }
  }
}

TEST(GenObfOracleTest, ZeroPriorityEdgesTieBreakByEdgeId) {
  // Two of every three edges have Q^e = 0, so their keys are all +inf.
  // At c = 0.6 the selection runs out of finite keys and must take the
  // infinite ones lowest edge id first.
  const UncertainGraph g = RandomGraph(500, 3000, 11);
  const std::vector<double> uniqueness = Uniqueness(g);
  Result<std::vector<double>> priorities =
      ComputeEdgePriorities(g, uniqueness, {});
  ASSERT_TRUE(priorities.ok());
  for (std::size_t e = 0; e < priorities->size(); ++e) {
    if (e % 3 != 0) (*priorities)[e] = 0.0;
  }
  for (const double c : {0.2, 0.6, 1.0}) {
    for (const NoiseModel noise :
         {NoiseModel::kMaxEntropy, NoiseModel::kAdditive}) {
      GenObfOptions options;
      options.k = 16.0;
      options.epsilon = 0.02;
      options.candidate_fraction = c;
      options.noise = noise;
      CheckAgainstOracle(g, uniqueness, *priorities, options, 20);
    }
  }
  // All-zero priorities: every key ties and the scale falls back to σ.
  const std::vector<double> zeros(g.num_edges(), 0.0);
  GenObfOptions options;
  options.candidate_fraction = 0.3;
  CheckAgainstOracle(g, uniqueness, zeros, options, 20);
}

TEST(GenObfOracleTest, ExcludedVerticesKeepTheirEdges) {
  // ε = 0.3 excludes ⌈0.15·600⌉ = 90 vertices, and with them a large
  // share of the edges, so c = 1.0 asks for more than is eligible.
  const UncertainGraph g = RandomGraph(600, 3000, 23);
  const std::vector<double> uniqueness = Uniqueness(g);
  const Result<std::vector<double>> priorities =
      ComputeEdgePriorities(g, uniqueness, {});
  ASSERT_TRUE(priorities.ok());
  GenObfOptions options;
  options.k = 8.0;
  options.epsilon = 0.3;
  const Result<GenObfPlan> plan = PlanGenObf(g, uniqueness, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->excluded_vertices, 90u);
  EXPECT_LT(plan->eligible.size(), g.num_edges());
  for (const double c : {0.3, 1.0}) {
    for (const NoiseModel noise :
         {NoiseModel::kMaxEntropy, NoiseModel::kAdditive}) {
      options.candidate_fraction = c;
      options.noise = noise;
      CheckAgainstOracle(g, uniqueness, *priorities, options, 20);
    }
  }
  options.candidate_fraction = 1.0;
  const Result<GenObfPlan> all = PlanGenObf(g, uniqueness, options);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->candidates, all->eligible.size());
  Rng rng(3);
  const Result<GenObfAttempt> attempt =
      GenObf(g, *all, *priorities, 0.5, options, rng);
  ASSERT_TRUE(attempt.ok());
  std::vector<char> eligible(g.num_edges(), 0);
  for (const EdgeId e : all->eligible) eligible[e] = 1;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (!eligible[e]) {
      EXPECT_EQ(attempt->published.edges()[e].p, g.edges()[e].p) << e;
    }
  }
}

TEST(GenObfOracleTest, RejectsBadArguments) {
  const UncertainGraph g = RandomGraph(50, 100, 5);
  const std::vector<double> uniqueness = Uniqueness(g);
  const std::vector<double> priorities(g.num_edges(), 1.0);
  GenObfOptions options;
  EXPECT_EQ(PlanGenObf(g, {1.0}, options).status().code(),
            StatusCode::kInvalidArgument);
  options.candidate_fraction = 0.0;
  EXPECT_EQ(PlanGenObf(g, uniqueness, options).status().code(),
            StatusCode::kInvalidArgument);
  options = GenObfOptions{};
  const Result<GenObfPlan> plan = PlanGenObf(g, uniqueness, options);
  ASSERT_TRUE(plan.ok());
  Rng rng(1);
  EXPECT_EQ(GenObf(g, *plan, {1.0}, 0.1, options, rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenObf(g, *plan, priorities, 0.0, options, rng).status().code(),
            StatusCode::kInvalidArgument);
  options.white_noise = 1.5;
  EXPECT_EQ(GenObf(g, *plan, priorities, 0.1, options, rng).status().code(),
            StatusCode::kInvalidArgument);
  // A plan made for a bigger graph names edges this one does not have.
  const UncertainGraph bigger = RandomGraph(50, 300, 6);
  const Result<GenObfPlan> other =
      PlanGenObf(bigger, Uniqueness(bigger), GenObfOptions{});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(GenObf(g, *other, priorities, 0.1, GenObfOptions{}, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Anonymize, which plans once per search, against the σ search run through
// the one-shot wrapper for every attempt.
// ---------------------------------------------------------------------------

std::uint64_t AttemptSeed(std::uint64_t seed, std::size_t level,
                          std::size_t attempt) {
  std::uint64_t state = seed ^ (0x94d049bb133111ebull * (level + 1)) ^
                        (0xd6e8feb86659fd93ull * (attempt + 1));
  return SplitMix64(state);
}

/// Algorithm 1 as anonymize/chameleon.cc runs it, with every attempt
/// going through GenObf(graph, uniqueness, priorities, σ, options, rng).
AnonymizeResult WrapperSearch(const UncertainGraph& graph, Variant variant,
                              const ChameleonOptions& options) {
  AnonymizeResult result;
  result.variant = variant;
  privacy::UniquenessOptions uniq_options;
  uniq_options.bandwidth = options.uniqueness_bandwidth;
  uniq_options.threads = options.threads;
  const std::vector<double> uniqueness =
      privacy::ComputeUniqueness(graph, uniq_options).value().scores;
  std::vector<double> relevance_err;
  if (variant == Variant::kRSME || variant == Variant::kRS) {
    RelevanceOptions rel_options;
    rel_options.worlds = options.relevance_worlds;
    rel_options.seed = options.seed;
    rel_options.threads = options.threads;
    rel_options.max_rel_err = options.relevance_max_rel_err;
    rel_options.heartbeat = options.heartbeat;
    relevance_err = EstimateRelevance(graph, rel_options).value().err;
  }
  const std::vector<double> priorities =
      ComputeEdgePriorities(graph, uniqueness, relevance_err).value();
  GenObfOptions gen_options;
  gen_options.k = options.k;
  gen_options.epsilon = options.epsilon;
  gen_options.candidate_fraction = options.candidate_fraction;
  gen_options.white_noise = options.white_noise;
  gen_options.noise = variant == Variant::kRS ? NoiseModel::kAdditive
                                              : NoiseModel::kMaxEntropy;
  gen_options.adversary = options.adversary;
  gen_options.threads = options.threads;

  std::optional<GenObfAttempt> best;
  std::optional<GenObfAttempt> last_failed;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t level = 0;
  auto try_level = [&](double sigma, std::string_view phase) {
    bool success = false;
    for (std::size_t a = 0; a < options.trials; ++a) {
      Rng rng(AttemptSeed(options.seed, level, a));
      GenObfAttempt attempt =
          GenObf(graph, uniqueness, priorities, sigma, gen_options, rng)
              .value();
      ++result.attempts;
      const bool ok = attempt.certificate.obfuscated;
      result.trace.push_back(SigmaTraceEntry{
          sigma, level, a, std::string(phase), ok,
          attempt.certificate.epsilon_hat, attempt.wall_ms});
      if (ok) {
        best = std::move(attempt);
        success = true;
        break;
      }
      last_failed = std::move(attempt);
    }
    if (success) hi = sigma;
    ++level;
    return success;
  };
  bool found = false;
  for (double sigma = options.sigma_init;;) {
    if (try_level(sigma, "expand")) {
      found = true;
      break;
    }
    lo = sigma;
    if (sigma >= options.sigma_max) break;
    sigma = std::min(sigma * 2.0, options.sigma_max);
  }
  if (found) {
    for (std::size_t i = 0; i < options.refine_iters; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (!(mid > lo && mid < hi)) break;
      if (!try_level(mid, "refine")) lo = mid;
    }
  }
  result.feasible = found;
  if (found) {
    result.sigma = hi;
    result.published = std::move(best->published);
    result.certificate = std::move(best->certificate);
    result.perturbed_edges = best->perturbed_edges;
    result.excluded_vertices = best->excluded_vertices;
  } else {
    result.published = graph;
    result.certificate = std::move(last_failed->certificate);
    result.perturbed_edges = last_failed->perturbed_edges;
    result.excluded_vertices = last_failed->excluded_vertices;
  }
  return result;
}

void ExpectSameSearch(const UncertainGraph& g, Variant variant,
                      const ChameleonOptions& options) {
  const Result<AnonymizeResult> planned = Anonymize(g, variant, options);
  ASSERT_TRUE(planned.ok()) << planned.status().message();
  const AnonymizeResult wrapped = WrapperSearch(g, variant, options);
  EXPECT_EQ(planned->feasible, wrapped.feasible);
  EXPECT_TRUE(SameBits(planned->sigma, wrapped.sigma));
  EXPECT_EQ(planned->attempts, wrapped.attempts);
  ASSERT_EQ(planned->trace.size(), wrapped.trace.size());
  for (std::size_t i = 0; i < wrapped.trace.size(); ++i) {
    const SigmaTraceEntry& a = planned->trace[i];
    const SigmaTraceEntry& b = wrapped.trace[i];
    EXPECT_TRUE(SameBits(a.sigma, b.sigma)) << i;
    EXPECT_EQ(a.level, b.level) << i;
    EXPECT_EQ(a.attempt, b.attempt) << i;
    EXPECT_EQ(a.phase, b.phase) << i;
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_TRUE(SameBits(a.epsilon_hat, b.epsilon_hat)) << i;
  }
  ExpectSameGraph(planned->published, wrapped.published);
  ExpectSameCertificate(planned->certificate, wrapped.certificate);
  EXPECT_EQ(planned->perturbed_edges, wrapped.perturbed_edges);
  EXPECT_EQ(planned->excluded_vertices, wrapped.excluded_vertices);
}

ChameleonOptions SearchOptions() {
  ChameleonOptions options;
  options.k = 32.0;
  options.epsilon = 0.05;
  options.trials = 2;
  options.relevance_worlds = 64;
  options.refine_iters = 4;
  options.seed = 2018;
  options.threads = 2;
  options.heartbeat = false;
  return options;
}

TEST(GenObfSearchTest, SearchMatchesWrapperPerAttempt) {
  const UncertainGraph g = RandomGraph(300, 900, 64);
  for (const Variant variant : {Variant::kRSME, Variant::kME, Variant::kRS}) {
    SCOPED_TRACE(std::string(VariantName(variant)));
    ExpectSameSearch(g, variant, SearchOptions());
  }
}

TEST(GenObfSearchTest, InfeasibleSearchMatchesWrapperPerAttempt) {
  // σ capped far too low: every attempt fails, and Anonymize must
  // report the last failing attempt's evidence.
  const UncertainGraph g = RandomGraph(300, 900, 64);
  ChameleonOptions options = SearchOptions();
  options.k = 200.0;
  options.epsilon = 0.0;
  options.sigma_init = 1e-4;
  options.sigma_max = 4e-4;
  const Result<AnonymizeResult> planned = Anonymize(g, Variant::kME, options);
  ASSERT_TRUE(planned.ok());
  ASSERT_FALSE(planned->feasible);
  EXPECT_EQ(planned->attempts, 3 * options.trials);
  ExpectSameSearch(g, Variant::kME, options);
}

}  // namespace
}  // namespace chameleon::anonymize
