#include "chameleon/anonymize/gen_obf.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anonymize/gen_obf_oracle.h"
#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/generators.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/alloc_stats.h"
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

/// An attempt run on `scratch` against the oracle's: p̃ bit for bit with
/// the oracle's published probabilities, and the same certificate and
/// counts. The scratch attempt builds no graph.
void ExpectSameScratchAttempt(const GenObfScratch& scratch,
                              const GenObfAttempt& got,
                              const GenObfAttempt& want) {
  EXPECT_EQ(got.published.num_nodes(), 0u);
  const std::span<const double> p = scratch.probabilities();
  ASSERT_EQ(p.size(), want.published.num_edges());
  for (std::size_t e = 0; e < p.size(); ++e) {
    ASSERT_TRUE(SameBits(p[e], want.published.edges()[e].p)) << "edge " << e;
  }
  ExpectSameCertificate(got.certificate, want.certificate);
  EXPECT_EQ(got.perturbed_edges, want.perturbed_edges);
  EXPECT_EQ(got.excluded_vertices, want.excluded_vertices);
  EXPECT_TRUE(SameBits(got.sigma, want.sigma));
}

/// One plan and one scratch per (graph, options), then `seeds` attempts
/// at σ cycling through {0.05, 0.2, 0.7}: each must match the oracle's
/// attempt from the same stream and leave the stream in the same state.
/// Every third attempt is kept, as the driver keeps a success; after the
/// later attempts ran, the graph built from the kept p̃ must be the
/// oracle's published graph of that attempt. The first attempt must also
/// match the one-shot wrapper, whose graph shares the input's topology.
void CheckAgainstOracle(const UncertainGraph& g,
                        const std::vector<double>& uniqueness,
                        const std::vector<double>& priorities,
                        const GenObfOptions& options, int seeds) {
  const Result<GenObfPlan> plan = PlanGenObf(g, uniqueness, options);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  GenObfScratch scratch;
  std::optional<UncertainGraph> kept_oracle;
  const double sigmas[] = {0.05, 0.2, 0.7};
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const double sigma = sigmas[seed % 3];
    Rng planned_rng(1000 + static_cast<std::uint64_t>(seed));
    Rng oracle_rng(1000 + static_cast<std::uint64_t>(seed));
    const Result<GenObfAttempt> planned =
        GenObf(g, *plan, priorities, sigma, options, planned_rng, scratch);
    const Result<GenObfAttempt> oracle =
        OracleGenObf(g, uniqueness, priorities, sigma, options, oracle_rng);
    ASSERT_TRUE(planned.ok()) << planned.status().message();
    ASSERT_TRUE(oracle.ok()) << oracle.status().message();
    ExpectSameScratchAttempt(scratch, *planned, *oracle);
    EXPECT_EQ(planned_rng(), oracle_rng()) << "rng consumption differs";
    if (seed % 3 == 0) {
      scratch.Keep();
      kept_oracle = oracle->published;
    }
    if (seed == 0) {
      Rng wrapper_rng(1000);
      const Result<GenObfAttempt> wrapped =
          GenObf(g, uniqueness, priorities, sigma, options, wrapper_rng);
      ASSERT_TRUE(wrapped.ok());
      ExpectSameAttempt(*wrapped, *oracle);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(wrapped->published.Neighbors(v).data(),
                  g.Neighbors(v).data());
      }
    }
  }
  ASSERT_TRUE(kept_oracle.has_value());
  const Result<UncertainGraph> winner = g.WithProbabilities(scratch.kept());
  ASSERT_TRUE(winner.ok());
  ExpectSameGraph(*winner, *kept_oracle);
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

TEST(GenObfOracleTest, MatchesOracleAtEveryWorkerCount) {
  // 20,000 edges span five of GenObf's 4096-edge blocks, so every sweep
  // splits across the workers granted.
  const UncertainGraph g = RandomGraph(3000, 20000, 77);
  const std::vector<double> uniqueness = Uniqueness(g);
  const Result<std::vector<double>> priorities =
      ComputeEdgePriorities(g, uniqueness, {});
  ASSERT_TRUE(priorities.ok());
  // The variants' attempt configurations: max-entropy (RSME, ME, Rep-An)
  // or additive noise (RS), under either adversary.
  for (const NoiseModel noise :
       {NoiseModel::kMaxEntropy, NoiseModel::kAdditive}) {
    for (const privacy::AdversaryModel adversary :
         {privacy::AdversaryModel::kRoundedExpectedDegree,
          privacy::AdversaryModel::kStructuralDegree}) {
      for (const int threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(std::string(NoiseModelName(noise)) + ", " +
                     std::string(privacy::AdversaryModelName(adversary)) +
                     ", threads " + std::to_string(threads));
        GenObfOptions options;
        options.k = 32.0;
        options.epsilon = 0.02;
        options.noise = noise;
        options.adversary = adversary;
        options.threads = threads;
        CheckAgainstOracle(g, uniqueness, *priorities, options, 3);
      }
    }
  }
}

TEST(GenObfStreamTest, SingleCandidateIsDrawnInProportionToPriority) {
  // With one candidate per attempt, Efraimidis–Spirakis picks edge e with
  // probability w_e / Σw. Additive noise moves the chosen edge's p, which
  // is how each attempt's pick is read back.
  const UncertainGraph g = RandomGraph(40, 60, 31);
  std::vector<double> priorities(g.num_edges());
  double total = 0.0;
  for (std::size_t e = 0; e < priorities.size(); ++e) {
    priorities[e] = 1.0 + static_cast<double>(e % 5);
    total += priorities[e];
  }
  GenObfOptions options;
  options.k = 2.0;
  options.epsilon = 0.0;
  options.candidate_fraction = 0.5 / static_cast<double>(g.num_edges());
  options.noise = NoiseModel::kAdditive;
  options.threads = 1;
  const Result<GenObfPlan> plan =
      PlanGenObf(g, std::vector<double>(g.num_nodes(), 0.5), options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->candidates, 1u);
  ASSERT_EQ(plan->eligible.size(), g.num_edges());
  constexpr int kAttempts = 20000;
  std::vector<int> picks(g.num_edges(), 0);
  // One scratch for every attempt, as in a search: each attempt must
  // reset the edge the previous one moved.
  GenObfScratch scratch;
  for (int a = 0; a < kAttempts; ++a) {
    Rng rng(static_cast<std::uint64_t>(a));
    const Result<GenObfAttempt> attempt =
        GenObf(g, *plan, priorities, 0.5, options, rng, scratch);
    ASSERT_TRUE(attempt.ok());
    int moved = 0;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      if (!SameBits(scratch.probabilities()[e], g.edges()[e].p)) {
        ++picks[e];
        ++moved;
      }
    }
    ASSERT_EQ(moved, 1) << "attempt " << a;
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const double share = priorities[e] / total;
    const double mean = kAttempts * share;
    const double sd = std::sqrt(kAttempts * share * (1.0 - share));
    EXPECT_LE(std::abs(picks[e] - mean), 5.0 * sd)
        << "edge " << e << ": " << picks[e] << " picks, expected " << mean;
  }
}

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

TEST(GenObfStreamTest, AdjacentEdgesDrawUncorrelatedKeysAndNoise) {
  // The oracle's streams, which MatchesOracle* pin equal to GenObf's.
  // Under independence Pearson's r has standard deviation ~1/√n.
  constexpr EdgeId kEdges = 200000;
  const double bound = 5.0 / std::sqrt(static_cast<double>(kEdges - 1));
  for (const std::uint64_t master : {2018u, 7u}) {
    Rng rng(master);
    const std::uint64_t seed = rng();
    std::vector<double> key(kEdges);
    std::vector<double> noise(kEdges);
    for (EdgeId e = 0; e < kEdges; ++e) {
      key[e] = OracleKeyUniform(seed, e);
      ASSERT_GT(key[e], 0.0);
      ASSERT_LT(key[e], 1.0);
      noise[e] = OracleNoiseRng(seed, e).UniformDouble();
    }
    const std::vector<double> key_head(key.begin(), key.end() - 1);
    const std::vector<double> key_next(key.begin() + 1, key.end());
    const std::vector<double> noise_head(noise.begin(), noise.end() - 1);
    const std::vector<double> noise_next(noise.begin() + 1, noise.end());
    SCOPED_TRACE(master);
    EXPECT_LT(std::abs(Pearson(key_head, key_next)), bound);
    EXPECT_LT(std::abs(Pearson(noise_head, noise_next)), bound);
    EXPECT_LT(std::abs(Pearson(key_head, noise_head)), bound);
    EXPECT_LT(std::abs(Pearson(key_head, noise_next)), bound);
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
  GenObfScratch scratch;
  const Result<GenObfAttempt> attempt =
      GenObf(g, *all, *priorities, 0.5, options, rng, scratch);
  ASSERT_TRUE(attempt.ok());
  std::vector<char> eligible(g.num_edges(), 0);
  for (const EdgeId e : all->eligible) eligible[e] = 1;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (!eligible[e]) {
      EXPECT_EQ(scratch.probabilities()[e], g.edges()[e].p) << e;
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
  GenObfScratch scratch;
  EXPECT_EQ(
      GenObf(g, *plan, {1.0}, 0.1, options, rng, scratch).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      GenObf(g, *plan, priorities, 0.0, options, rng, scratch).status().code(),
      StatusCode::kInvalidArgument);
  options.white_noise = 1.5;
  EXPECT_EQ(
      GenObf(g, *plan, priorities, 0.1, options, rng, scratch).status().code(),
      StatusCode::kInvalidArgument);
  // A plan made for a bigger graph names edges this one does not have.
  const UncertainGraph bigger = RandomGraph(50, 300, 6);
  const Result<GenObfPlan> other =
      PlanGenObf(bigger, Uniqueness(bigger), GenObfOptions{});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(GenObf(g, *other, priorities, 0.1, GenObfOptions{}, rng, scratch)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(scratch.probabilities().empty());
}

TEST(GenObfOracleTest, RejectsNonFiniteOptionsBeforeAnyWork) {
  const UncertainGraph g = RandomGraph(50, 100, 5);
  const std::vector<double> uniqueness = Uniqueness(g);
  const std::vector<double> priorities(g.num_edges(), 1.0);
  const Result<GenObfPlan> plan = PlanGenObf(g, uniqueness, GenObfOptions{});
  ASSERT_TRUE(plan.ok());
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* name;
    double GenObfOptions::*field;
  } fields[] = {
      {"k", &GenObfOptions::k},
      {"epsilon", &GenObfOptions::epsilon},
      {"candidate_fraction", &GenObfOptions::candidate_fraction},
      {"white_noise", &GenObfOptions::white_noise},
  };
  for (const auto& [name, field] : fields) {
    for (const double value : {std::nan(""), inf, -inf}) {
      GenObfOptions options;
      options.*field = value;
      // PlanGenObf would cast ⌈ε/2·|V|⌉ and ⌈c·|E|⌉ to size_t.
      const Result<GenObfPlan> bad_plan = PlanGenObf(g, uniqueness, options);
      ASSERT_EQ(bad_plan.status().code(), StatusCode::kInvalidArgument)
          << name << " = " << value;
      EXPECT_NE(bad_plan.status().message().find(name), std::string::npos)
          << bad_plan.status().ToString();
      Rng rng(1);
      GenObfScratch scratch;
      EXPECT_EQ(GenObf(g, *plan, priorities, 0.1, options, rng, scratch)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << name << " = " << value;
    }
  }
  for (const double sigma : {std::nan(""), inf, -inf}) {
    Rng rng(1);
    GenObfScratch scratch;
    const Result<GenObfAttempt> attempt =
        GenObf(g, *plan, priorities, sigma, GenObfOptions{}, rng, scratch);
    ASSERT_EQ(attempt.status().code(), StatusCode::kInvalidArgument) << sigma;
    EXPECT_NE(attempt.status().message().find("sigma"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// GenObfScratch: what a search reuses across its attempts.
// ---------------------------------------------------------------------------

/// One attempt on `reused` must equal the same attempt on a fresh scratch,
/// p̃ bit for bit.
void ExpectSameAsFreshScratch(const UncertainGraph& g, const GenObfPlan& plan,
                              const std::vector<double>& priorities,
                              const GenObfOptions& options, std::uint64_t seed,
                              GenObfScratch& reused) {
  Rng reused_rng(seed);
  Rng fresh_rng(seed);
  GenObfScratch fresh;
  const Result<GenObfAttempt> got =
      GenObf(g, plan, priorities, 0.7, options, reused_rng, reused);
  const Result<GenObfAttempt> want =
      GenObf(g, plan, priorities, 0.7, options, fresh_rng, fresh);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(want.ok()) << want.status().message();
  ASSERT_EQ(reused.probabilities().size(), fresh.probabilities().size());
  for (std::size_t e = 0; e < fresh.probabilities().size(); ++e) {
    ASSERT_TRUE(SameBits(reused.probabilities()[e], fresh.probabilities()[e]))
        << "edge " << e;
  }
  ExpectSameCertificate(got->certificate, want->certificate);
}

TEST(GenObfScratchTest, RefillsUnderAnotherPlanOrGraph) {
  // At c = 1 the first plan perturbs nearly every edge. The second plan
  // excludes 90 vertices, so many of those edges are not its to perturb:
  // they must read p again. The second graph has the same topology and
  // other probabilities, so every edge its plan leaves alone must read
  // that graph's p.
  const UncertainGraph g = RandomGraph(600, 3000, 23);
  const std::vector<double> uniqueness = Uniqueness(g);
  const std::vector<double> priorities =
      ComputeEdgePriorities(g, uniqueness, {}).value();
  GenObfOptions wide;
  wide.k = 8.0;
  wide.epsilon = 0.01;
  wide.candidate_fraction = 1.0;
  GenObfOptions narrow = wide;
  narrow.epsilon = 0.3;
  const GenObfPlan wide_plan = PlanGenObf(g, uniqueness, wide).value();
  const GenObfPlan narrow_plan = PlanGenObf(g, uniqueness, narrow).value();
  ASSERT_NE(wide_plan.id, narrow_plan.id);
  ASSERT_LT(narrow_plan.eligible.size(), wide_plan.eligible.size());

  std::vector<double> flipped(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    flipped[e] = 1.0 - g.edges()[e].p;
  }
  const UncertainGraph other = g.WithProbabilities(flipped).value();
  const std::vector<double> other_uniqueness = Uniqueness(other);
  const std::vector<double> other_priorities =
      ComputeEdgePriorities(other, other_uniqueness, {}).value();
  const GenObfPlan other_plan =
      PlanGenObf(other, other_uniqueness, wide).value();
  ASSERT_LT(other_plan.eligible.size(), other.num_edges());

  GenObfScratch scratch;
  {
    SCOPED_TRACE("first plan");
    ExpectSameAsFreshScratch(g, wide_plan, priorities, wide, 1, scratch);
  }
  {
    SCOPED_TRACE("second plan");
    ExpectSameAsFreshScratch(g, narrow_plan, priorities, narrow, 2, scratch);
  }
  {
    SCOPED_TRACE("second graph");
    ExpectSameAsFreshScratch(other, other_plan, other_priorities, wide, 3,
                             scratch);
  }
  {
    SCOPED_TRACE("first plan again, after a Keep");
    scratch.Keep();
    ExpectSameAsFreshScratch(g, wide_plan, priorities, wide, 4, scratch);
  }
}

TEST(GenObfScratchTest, TakeKeptHandsOutTheKeptVectorAndResets) {
  // A kept attempt, then a later one at another seed, so the latest p̃
  // and the kept one differ: TakeKept must hand out the kept one.
  const UncertainGraph g = RandomGraph(600, 3000, 23);
  const std::vector<double> uniqueness = Uniqueness(g);
  const std::vector<double> priorities =
      ComputeEdgePriorities(g, uniqueness, {}).value();
  GenObfOptions options;
  options.k = 8.0;
  options.epsilon = 0.01;
  options.candidate_fraction = 1.0;
  const GenObfPlan plan = PlanGenObf(g, uniqueness, options).value();
  GenObfScratch scratch;
  Rng kept_rng(1);
  ASSERT_TRUE(
      GenObf(g, plan, priorities, 0.7, options, kept_rng, scratch).ok());
  scratch.Keep();
  Rng later_rng(2);
  ASSERT_TRUE(
      GenObf(g, plan, priorities, 0.7, options, later_rng, scratch).ok());
  const std::vector<double> kept(scratch.kept().begin(),
                                 scratch.kept().end());
  const std::vector<double> latest(scratch.probabilities().begin(),
                                   scratch.probabilities().end());
  ASSERT_EQ(kept.size(), g.num_edges());
  ASSERT_NE(std::memcmp(kept.data(), latest.data(),
                        kept.size() * sizeof(double)),
            0);

  const std::vector<double> taken = scratch.TakeKept();
  ASSERT_EQ(taken.size(), kept.size());
  EXPECT_EQ(std::memcmp(taken.data(), kept.data(),
                        kept.size() * sizeof(double)),
            0);
  EXPECT_TRUE(scratch.kept().empty());
  EXPECT_TRUE(scratch.probabilities().empty());
  // Reset, the scratch fills p̃ from the graph again on its next attempt.
  ExpectSameAsFreshScratch(g, plan, priorities, options, 3, scratch);
}

TEST(GenObfScratchTest, AttemptsAfterTheFirstAllocateUnderOneMiB) {
  // 8k vertices at mean degree 100: 400k edges, so p̃ alone is 3.2 MB and
  // the selection keys another 3.2 MB. Reused, they leave an attempt
  // only small per-call buffers, a kept attempt included. (Every sample
  // reads zero in a build without observability.)
  Rng rng(2018);
  const UncertainGraph g =
      graph::RandomGraph({.nodes = 8000, .avg_degree = 100.0}, rng).value();
  const std::vector<double> uniqueness = Uniqueness(g);
  const std::vector<double> priorities =
      ComputeEdgePriorities(g, uniqueness, {}).value();
  GenObfOptions options;
  options.k = 100.0;
  options.epsilon = 0.01;
  options.threads = 2;
  const GenObfPlan plan = PlanGenObf(g, uniqueness, options).value();
  GenObfScratch scratch;
  for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
    SCOPED_TRACE(attempt);
    Rng attempt_rng(attempt);
    const std::uint64_t before = obs::TotalAllocStats().alloc_bytes;
    ASSERT_TRUE(
        GenObf(g, plan, priorities, 0.2, options, attempt_rng, scratch).ok());
    const std::uint64_t allocated =
        obs::TotalAllocStats().alloc_bytes - before;
    if (attempt > 0) {
      EXPECT_LT(allocated, std::uint64_t{1} << 20);
    }
    if (attempt == 1) scratch.Keep();
  }
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

TEST(GenObfSearchTest, BitIdenticalAtAnyWorkerCount) {
  const UncertainGraph g = RandomGraph(3000, 20000, 65);
  for (const Variant variant :
       {Variant::kRSME, Variant::kME, Variant::kRS, Variant::kRepAn}) {
    SCOPED_TRACE(std::string(VariantName(variant)));
    ChameleonOptions options = SearchOptions();
    options.threads = 1;
    const Result<AnonymizeResult> serial = Anonymize(g, variant, options);
    ASSERT_TRUE(serial.ok()) << serial.status().message();
    ASSERT_GT(serial->attempts, 1u);
    for (const int threads : {2, 3, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      options.threads = threads;
      const Result<AnonymizeResult> got = Anonymize(g, variant, options);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(got->feasible, serial->feasible);
      EXPECT_TRUE(SameBits(got->sigma, serial->sigma));
      ASSERT_EQ(got->trace.size(), serial->trace.size());
      for (std::size_t i = 0; i < serial->trace.size(); ++i) {
        EXPECT_TRUE(SameBits(got->trace[i].sigma, serial->trace[i].sigma));
        EXPECT_EQ(got->trace[i].success, serial->trace[i].success);
        EXPECT_TRUE(SameBits(got->trace[i].epsilon_hat,
                             serial->trace[i].epsilon_hat))
            << i;
      }
      ExpectSameGraph(got->published, serial->published);
      ExpectSameCertificate(got->certificate, serial->certificate);
      EXPECT_EQ(got->perturbed_edges, serial->perturbed_edges);
    }
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
