#include "chameleon/anonymize/chameleon.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/rep_an.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"
#include "privacy/uniqueness_oracle.h"

namespace chameleon::anonymize {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// Sparse ER graph on 64 nodes — small enough for fast search, large
/// enough that (k, ε) targets are meaningful.
UncertainGraph MakeEr64() {
  Rng rng(7);
  UncertainGraphBuilder builder(64);
  for (NodeId u = 0; u < 64; ++u) {
    for (NodeId v = u + 1; v < 64; ++v) {
      if (rng.Bernoulli(4.0 / 63.0)) {
        EXPECT_TRUE(builder.AddEdge(u, v, rng.Uniform(0.1, 0.9)).ok());
      }
    }
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// A target the raw er-64 graph FAILS (eps_hat ≈ 0.078 > 0.05): the
/// end-to-end tests below prove the anonymizer repairs it, not that the
/// input was fine all along.
ChameleonOptions FastOptions() {
  ChameleonOptions options;
  options.k = 32.0;
  options.epsilon = 0.05;
  options.trials = 2;
  options.relevance_worlds = 200;
  options.refine_iters = 3;
  options.seed = 2018;
  options.heartbeat = false;
  return options;
}

TEST(PerturbationTest, MaxEntropyNeverSharpensAnEdge) {
  // |p̃ − 1/2| = |p − 1/2|·|1 − 2r| ≤ |p − 1/2| for r ∈ [0, 1]: every
  // max-entropy draw weakly increases the edge's Bernoulli entropy.
  Rng rng(11);
  for (double p : {0.05, 0.3, 0.5, 0.8, 0.97}) {
    for (int i = 0; i < 2000; ++i) {
      const double perturbed =
          PerturbProbability(p, 0.4, NoiseModel::kMaxEntropy, 0.05, rng);
      ASSERT_GE(perturbed, 0.0);
      ASSERT_LE(perturbed, 1.0);
      ASSERT_LE(std::abs(perturbed - 0.5), std::abs(p - 0.5) + 1e-12)
          << "p=" << p;
    }
  }
}

TEST(PerturbationTest, AdditiveStaysInUnitInterval) {
  Rng rng(12);
  for (double p : {0.0, 0.2, 0.5, 0.9, 1.0}) {
    for (int i = 0; i < 2000; ++i) {
      const double perturbed =
          PerturbProbability(p, 0.3, NoiseModel::kAdditive, 0.05, rng);
      ASSERT_GE(perturbed, 0.0);
      ASSERT_LE(perturbed, 1.0);
    }
  }
}

TEST(PerturbationTest, PrioritiesWeighUniquenessAndRelevance) {
  UncertainGraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.5).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  const std::vector<double> uniqueness = {1.0, 0.5, 0.0};
  // No relevance: Q^e = mean endpoint uniqueness.
  Result<std::vector<double>> q = ComputeEdgePriorities(*g, uniqueness, {});
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ((*q)[0], 0.75);
  EXPECT_DOUBLE_EQ((*q)[1], 0.25);
  // With relevance: the max-ERR edge is fully damped.
  const std::vector<double> err = {2.0, 1.0};
  q = ComputeEdgePriorities(*g, uniqueness, err);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ((*q)[0], 0.0);
  EXPECT_DOUBLE_EQ((*q)[1], 0.125);
  // Size mismatches are errors, not UB.
  EXPECT_FALSE(ComputeEdgePriorities(*g, {1.0}, {}).ok());
  EXPECT_FALSE(ComputeEdgePriorities(*g, uniqueness, {1.0}).ok());
}

TEST(RepAnTest, ExpectedEdgeCountExtraction) {
  UncertainGraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.8).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, 0.2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3, 0.1).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  // Σp = 2.0 → the two highest-probability edges survive, at p = 1.
  Result<UncertainGraph> rep = ExtractRepresentative(*g, -1.0);
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(rep->num_edges(), 2u);
  for (const auto& e : rep->edges()) EXPECT_DOUBLE_EQ(e.p, 1.0);
  // Threshold mode keeps everything at or above the cut.
  rep = ExtractRepresentative(*g, 0.2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->num_edges(), 3u);
}

TEST(GenObfTest, FastAndOracleUniquenessPublishTheSameGraph) {
  // er-2k: 2,000 nodes, 8,000 distinct edges, p ~ U[0.1, 0.9].
  Rng graph_rng(2000);
  UncertainGraphBuilder builder(2000);
  std::set<std::pair<NodeId, NodeId>> seen;
  while (seen.size() < 8000) {
    auto u = static_cast<NodeId>(graph_rng.UniformInt(2000));
    auto v = static_cast<NodeId>(graph_rng.UniformInt(2000));
    if (u > v) std::swap(u, v);
    if (u == v || !seen.emplace(u, v).second) continue;
    ASSERT_TRUE(builder.AddEdge(u, v, graph_rng.Uniform(0.1, 0.9)).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());

  const Result<privacy::UniquenessScores> fast =
      privacy::ComputeUniqueness(*g, privacy::UniquenessOptions{});
  ASSERT_TRUE(fast.ok());
  const std::vector<double> oracle = privacy::OracleUniqueness(
      g->expected_degrees(), privacy::Kernel::kGaussian, fast->bandwidth);
  // Priorities are held fixed: they scale the noise continuously, while
  // the exclusion set is the discrete use of U that must match exactly.
  const Result<std::vector<double>> priorities =
      ComputeEdgePriorities(*g, fast->scores, {});
  ASSERT_TRUE(priorities.ok());

  GenObfOptions options;
  options.k = 20.0;
  options.epsilon = 0.05;  // excludes the 50 most unique vertices
  auto attempt = [&](const std::vector<double>& uniqueness) {
    Rng rng(2018);
    return GenObf(*g, uniqueness, *priorities, 0.05, options, rng);
  };
  const Result<GenObfAttempt> with_fast = attempt(fast->scores);
  const Result<GenObfAttempt> with_oracle = attempt(oracle);
  ASSERT_TRUE(with_fast.ok());
  ASSERT_TRUE(with_oracle.ok());

  const auto& a = with_fast->published.edges();
  const auto& b = with_oracle->published.edges();
  ASSERT_EQ(a.size(), b.size());
  std::size_t changed = 0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].u, b[e].u);
    ASSERT_EQ(a[e].v, b[e].v);
    ASSERT_EQ(a[e].p, b[e].p) << "edge " << e;
    if (a[e].p != g->edges()[e].p) ++changed;
  }
  EXPECT_GT(changed, 0u) << "the attempt perturbed nothing";
  const privacy::ObfuscationCertificate& ca = with_fast->certificate;
  const privacy::ObfuscationCertificate& cb = with_oracle->certificate;
  EXPECT_EQ(ca.not_obfuscated, cb.not_obfuscated);
  EXPECT_EQ(ca.epsilon_hat, cb.epsilon_hat);
  EXPECT_EQ(ca.obfuscated, cb.obfuscated);
  EXPECT_EQ(ca.min_entropy_bits, cb.min_entropy_bits);
  EXPECT_EQ(ca.mean_entropy_bits, cb.mean_entropy_bits);
  EXPECT_EQ(ca.distinct_omegas, cb.distinct_omegas);
  EXPECT_EQ(with_fast->excluded_vertices, with_oracle->excluded_vertices);
  EXPECT_EQ(with_fast->perturbed_edges, with_oracle->perturbed_edges);
}

TEST(AnonymizeTest, VariantNamesRoundTrip) {
  for (Variant v :
       {Variant::kRSME, Variant::kME, Variant::kRS, Variant::kRepAn}) {
    const Result<Variant> parsed = ParseVariant(VariantName(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_TRUE(ParseVariant("repan").ok());
  EXPECT_TRUE(ParseVariant("RSME").ok());
  EXPECT_FALSE(ParseVariant("maxvar").ok());
}

/// End-to-end contract shared by all four variants: the search finds a
/// σ, the published graph independently passes the (k, ε) check, and
/// the trace records the attempts that got there.
void CheckEndToEnd(Variant variant, const ChameleonOptions& options) {
  const UncertainGraph g = MakeEr64();
  // Sanity: the input must not already satisfy the target (for Rep-An
  // the driver checks the representative instance, probed separately).
  if (variant != Variant::kRepAn) {
    privacy::ObfuscationOptions raw;
    raw.k = options.k;
    raw.epsilon = options.epsilon;
    raw.adversary = options.adversary;
    const Result<privacy::ObfuscationCertificate> before =
        privacy::VerifyObfuscation(g, raw);
    ASSERT_TRUE(before.ok());
    ASSERT_FALSE(before->obfuscated)
        << "fixture too easy: raw graph already passes";
  }
  const Result<AnonymizeResult> result = Anonymize(g, variant, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->variant, variant);
  ASSERT_TRUE(result->feasible) << "eps_hat=" << result->certificate.epsilon_hat;
  EXPECT_TRUE(result->certificate.obfuscated);
  EXPECT_GT(result->sigma, 0.0);
  EXPECT_FALSE(result->trace.empty());
  EXPECT_GE(result->attempts, result->trace.size());
  EXPECT_EQ(result->published.num_nodes(), g.num_nodes());

  // Independent re-verification of the published graph.
  privacy::ObfuscationOptions check;
  check.k = options.k;
  check.epsilon = options.epsilon;
  check.adversary = variant == Variant::kRepAn
                        ? privacy::AdversaryModel::kStructuralDegree
                        : options.adversary;
  const Result<privacy::ObfuscationCertificate> cert =
      privacy::VerifyObfuscation(result->published, check);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->obfuscated) << "eps_hat=" << cert->epsilon_hat;
}

TEST(AnonymizeTest, RsmeEndToEnd) {
  CheckEndToEnd(Variant::kRSME, FastOptions());
}

TEST(AnonymizeTest, MeEndToEnd) { CheckEndToEnd(Variant::kME, FastOptions()); }

TEST(AnonymizeTest, RsEndToEnd) { CheckEndToEnd(Variant::kRS, FastOptions()); }

TEST(AnonymizeTest, RepAnEndToEnd) {
  // The raw representative instance fails this target under the
  // structural-degree adversary (eps_hat ≈ 0.156 > 0.1).
  ChameleonOptions options = FastOptions();
  options.k = 8.0;
  options.epsilon = 0.1;
  const UncertainGraph g = MakeEr64();
  Result<UncertainGraph> rep = ExtractRepresentative(g, -1.0);
  ASSERT_TRUE(rep.ok());
  privacy::ObfuscationOptions raw;
  raw.k = options.k;
  raw.epsilon = options.epsilon;
  raw.adversary = privacy::AdversaryModel::kStructuralDegree;
  const Result<privacy::ObfuscationCertificate> before =
      privacy::VerifyObfuscation(*rep, raw);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->obfuscated)
      << "fixture too easy: raw representative already passes";
  CheckEndToEnd(Variant::kRepAn, options);
}

TEST(AnonymizeTest, BitIdenticalAcrossWorkerCounts) {
  const UncertainGraph g = MakeEr64();
  ChameleonOptions options = FastOptions();
  options.threads = 1;
  const Result<AnonymizeResult> one = Anonymize(g, Variant::kRSME, options);
  ASSERT_TRUE(one.ok());
  options.threads = 8;
  const Result<AnonymizeResult> eight = Anonymize(g, Variant::kRSME, options);
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one->feasible, eight->feasible);
  EXPECT_DOUBLE_EQ(one->sigma, eight->sigma);
  ASSERT_EQ(one->published.num_edges(), eight->published.num_edges());
  for (std::size_t e = 0; e < one->published.num_edges(); ++e) {
    const auto& a = one->published.edges()[e];
    const auto& b = eight->published.edges()[e];
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
    // Bitwise, not approximate: the whole pipeline is deterministic.
    EXPECT_EQ(a.p, b.p) << "edge " << e;
  }
}

TEST(AnonymizeTest, InfeasibleTargetIsReportedNotAnError) {
  // A tiny σ ceiling cannot fix a hub: the driver reports infeasible
  // and publishes the input unchanged rather than failing.
  UncertainGraphBuilder builder(9);
  for (NodeId leaf = 1; leaf < 9; ++leaf) {
    ASSERT_TRUE(builder.AddEdge(0, leaf, 0.9).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  ChameleonOptions options = FastOptions();
  options.k = 9.0;
  options.epsilon = 0.0;
  options.sigma_init = 1e-6;
  options.sigma_max = 2e-6;
  options.trials = 1;
  options.refine_iters = 0;
  const Result<AnonymizeResult> result =
      Anonymize(*g, Variant::kME, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->feasible);
  EXPECT_FALSE(result->certificate.obfuscated);
  ASSERT_EQ(result->published.num_edges(), g->num_edges());
  for (std::size_t e = 0; e < g->num_edges(); ++e) {
    EXPECT_EQ(result->published.edges()[e].p, g->edges()[e].p);
  }
}

TEST(AnonymizeTest, InvalidOptionsAreRejected) {
  const UncertainGraph g = MakeEr64();
  ChameleonOptions options = FastOptions();
  options.k = 1.0;  // k must exceed 1
  EXPECT_FALSE(Anonymize(g, Variant::kME, options).ok());
  options = FastOptions();
  options.sigma_init = 0.0;
  EXPECT_FALSE(Anonymize(g, Variant::kME, options).ok());
  options = FastOptions();
  options.sigma_max = options.sigma_init / 2.0;
  EXPECT_FALSE(Anonymize(g, Variant::kME, options).ok());
  options = FastOptions();
  options.relevance_worlds = 0;
  EXPECT_FALSE(Anonymize(g, Variant::kRSME, options).ok());
}

TEST(AnonymizeTest, NonFiniteOptionsAreRejectedByName) {
  // NaN passes a check written `x < lo || x > hi`; ±inf passes one with
  // no upper bound. Each must be an InvalidArgument naming the option,
  // for every variant, before the search starts.
  const UncertainGraph g = MakeEr64();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* name;
    double ChameleonOptions::*field;
  } fields[] = {
      {"k", &ChameleonOptions::k},
      {"epsilon", &ChameleonOptions::epsilon},
      {"candidate_fraction", &ChameleonOptions::candidate_fraction},
      {"white_noise", &ChameleonOptions::white_noise},
      {"sigma_init", &ChameleonOptions::sigma_init},
      {"sigma_max", &ChameleonOptions::sigma_max},
      {"relevance_max_rel_err", &ChameleonOptions::relevance_max_rel_err},
  };
  for (const auto& [name, field] : fields) {
    for (const double value : {std::nan(""), inf, -inf}) {
      for (const Variant variant :
           {Variant::kRSME, Variant::kME, Variant::kRS, Variant::kRepAn}) {
        ChameleonOptions options = FastOptions();
        options.*field = value;
        const Result<AnonymizeResult> result =
            Anonymize(g, variant, options);
        ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << name << " = " << value << " " << VariantName(variant);
        EXPECT_NE(result.status().message().find(name), std::string::npos)
            << result.status().ToString();
      }
    }
  }
}

}  // namespace
}  // namespace chameleon::anonymize
