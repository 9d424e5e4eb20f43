#include "chameleon/privacy/degree_distribution.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/rng.h"
#include "privacy/poisson_binomial.h"

namespace chameleon::privacy {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// Exact Poisson-binomial PMF by enumerating all 2^d edge subsets.
/// Exponential — only for cross-validating the convolution on small d.
std::vector<double> BruteForcePmf(const std::vector<double>& probs) {
  const std::size_t d = probs.size();
  std::vector<double> pmf(d + 1, 0.0);
  for (std::size_t mask = 0; mask < (std::size_t{1} << d); ++mask) {
    double weight = 1.0;
    std::size_t degree = 0;
    for (std::size_t e = 0; e < d; ++e) {
      if ((mask >> e) & 1u) {
        weight *= probs[e];
        ++degree;
      } else {
        weight *= 1.0 - probs[e];
      }
    }
    pmf[degree] += weight;
  }
  return pmf;
}

/// The one-entry backward recurrence AddEdge ran before it went two
/// lanes wide, kept as the bitwise oracle for the kernel.
void ScalarAddEdge(std::vector<double>& pmf, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const std::size_t d = pmf.size();
  pmf.push_back(0.0);
  for (std::size_t k = d; k > 0; --k) {
    pmf[k] = pmf[k] * (1.0 - p) + pmf[k - 1] * p;
  }
  pmf[0] *= 1.0 - p;
}

std::vector<double> ScalarPmf(std::span<const double> probs) {
  std::vector<double> pmf = {1.0};
  for (const double p : probs) ScalarAddEdge(pmf, p);
  return pmf;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double BruteForceEntropyBits(const std::vector<double>& pmf) {
  double h = 0.0;
  for (const double p : pmf) {
    if (p > 0.0) h -= p * std::log2(p);
  }
  return h;
}

std::vector<double> MixedProbs() {
  return {0.05, 0.3, 0.5, 0.7, 0.95, 0.11, 0.89, 0.42, 1.0, 0.0,
          0.63, 0.27, 0.77, 0.08, 0.5,  0.99, 0.01, 0.35};
}

TEST(DegreeDistributionTest, EmptyIsPointMassAtZero) {
  const DegreeDistribution dist;
  EXPECT_EQ(dist.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(dist.Pmf(0), 1.0);
  EXPECT_DOUBLE_EQ(dist.Pmf(1), 0.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(0), 1.0);
  EXPECT_DOUBLE_EQ(dist.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(dist.EntropyBits(), 0.0);
}

TEST(DegreeDistributionTest, MatchesBruteForceEnumeration) {
  // ISSUE acceptance: exact PMF within 1e-12 of 2^d enumeration for
  // every vertex with <= 20 incident edges. 18 edges here (262144
  // subsets), mixing extreme, middling, and deterministic probabilities.
  const std::vector<double> probs = MixedProbs();
  ASSERT_LE(probs.size(), 20u);
  const std::vector<double> expected = BruteForcePmf(probs);
  const DegreeDistribution dist = DegreeDistribution::FromProbabilities(probs);
  ASSERT_EQ(dist.pmf().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(dist.Pmf(k), expected[k], 1e-12) << "k=" << k;
  }
  EXPECT_NEAR(dist.EntropyBits(), BruteForceEntropyBits(expected), 1e-12);
  double mean = 0.0;
  for (const double p : probs) mean += p;
  EXPECT_NEAR(dist.Mean(), mean, 1e-12);
}

TEST(DegreeDistributionTest, PmfSumsToOneAndCdfIsMonotone) {
  const DegreeDistribution dist =
      DegreeDistribution::FromProbabilities(MixedProbs());
  double total = 0.0;
  for (const double p : dist.pmf()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  double last = 0.0;
  for (std::size_t k = 0; k <= dist.num_edges(); ++k) {
    EXPECT_GE(dist.Cdf(k), last - 1e-15);
    last = dist.Cdf(k);
  }
  EXPECT_NEAR(dist.Cdf(dist.num_edges()), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(dist.Cdf(dist.num_edges() + 5), 1.0);
}

TEST(DegreeDistributionTest, DeterministicEdgesShiftThePmf) {
  // Two certain edges and one impossible edge: degree = 2 exactly.
  const DegreeDistribution dist =
      DegreeDistribution::FromProbabilities(std::vector<double>{1.0, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(dist.Pmf(2), 1.0);
  EXPECT_DOUBLE_EQ(dist.Pmf(0), 0.0);
  EXPECT_DOUBLE_EQ(dist.Pmf(1), 0.0);
  EXPECT_DOUBLE_EQ(dist.Pmf(3), 0.0);
  EXPECT_DOUBLE_EQ(dist.EntropyBits(), 0.0);
}

TEST(DegreeDistributionTest, CertainEdgesShiftTheFractionalPmfBitForBit) {
  // The verifier builds a vertex's PMF from its edges with 0 < p < 1
  // alone and reads it c places up, for c edges of p = 1
  // (poisson_binomial.h). The full recurrence over every edge, with the
  // p ∈ {0, 1} edges first, last or at random places, must give exactly
  // that PMF, with exact zeros around it, at every lane count.
  Rng rng(77);
  for (std::size_t u = 0; u <= 40; ++u) {
    std::vector<double> fractional(u);
    for (std::size_t i = 0; i < u; ++i) {
      fractional[i] = i % 7 == 3   ? 1e-300
                      : i % 7 == 5 ? 1.0 - 0x1.0p-53
                                   : rng.Uniform(0.01, 0.99);
    }
    const std::vector<double> alone = ScalarPmf(fractional);
    for (std::size_t c = 0; c <= 6; ++c) {
      for (const std::size_t z : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
        std::vector<double> certain(c, 1.0);
        certain.insert(certain.end(), z, 0.0);
        std::shuffle(certain.begin(), certain.end(), rng);
        std::vector<double> want(u + c + z + 1, 0.0);
        std::copy(alone.begin(), alone.end(),
                  want.begin() + static_cast<std::ptrdiff_t>(c));
        std::vector<double> first = certain;
        first.insert(first.end(), fractional.begin(), fractional.end());
        std::vector<double> last = fractional;
        last.insert(last.end(), certain.begin(), certain.end());
        std::vector<double> scattered = fractional;
        for (const double p : certain) {
          scattered.insert(scattered.begin() + static_cast<std::ptrdiff_t>(
                                                   rng.UniformInt(
                                                       scattered.size() + 1)),
                           p);
        }
        for (const std::vector<double>* probs : {&first, &last, &scattered}) {
          SCOPED_TRACE(testing::Message() << u << " fractional, " << c
                                          << " certain, " << z << " zero");
          ASSERT_TRUE(SameBits(ScalarPmf(*probs), want));
          std::vector<double> two(probs->size() + 1);
          std::vector<double> four(probs->size() + 1);
          internal::BuildPmfLanes<2>(two.data(), probs->data(), probs->size());
          internal::BuildPmfLanes<4>(four.data(), probs->data(),
                                     probs->size());
          ASSERT_TRUE(SameBits(two, want));
          ASSERT_TRUE(SameBits(four, want));
        }
      }
    }
  }
}

TEST(DegreeDistributionTest, TwoLaneKernelMatchesScalarRecurrence) {
  // Every degree from 0 to 257 runs once per pattern, so both the even
  // and the odd tail of the two-lane loop run many times. The patterns
  // cover the clamp (−0.1, 1.5), exact shifts (0, 1), subnormal
  // products (1e-300), the largest double below 1, and seeded values.
  constexpr std::size_t kMaxDegree = 257;
  const std::vector<double> specials = {
      0.0, 1.0, 0.5, 1e-300, 1.0 - 0x1.0p-53, -0.1, 1.5};
  Rng rng(2018);
  std::vector<std::vector<double>> patterns;
  for (const double p : specials) {
    patterns.emplace_back(kMaxDegree, p);
  }
  std::vector<double> uniform(kMaxDegree);
  for (double& p : uniform) p = rng.UniformDouble();
  patterns.push_back(uniform);
  std::vector<double> mixed(kMaxDegree);
  for (std::size_t i = 0; i < kMaxDegree; ++i) {
    mixed[i] = i % 3 == 0 ? specials[(i / 3) % specials.size()]
                          : rng.UniformDouble();
  }
  patterns.push_back(mixed);

  for (std::size_t pattern = 0; pattern < patterns.size(); ++pattern) {
    DegreeDistribution dist;
    std::vector<double> oracle = {1.0};
    ASSERT_TRUE(SameBits(dist.pmf(), oracle));
    for (std::size_t d = 0; d < kMaxDegree; ++d) {
      dist.AddEdge(patterns[pattern][d]);
      ScalarAddEdge(oracle, patterns[pattern][d]);
      ASSERT_TRUE(SameBits(dist.pmf(), oracle))
          << "pattern " << pattern << ", degree " << d + 1;
    }
    EXPECT_TRUE(SameBits(
        DegreeDistribution::FromProbabilities(patterns[pattern]).pmf(),
        ScalarPmf(patterns[pattern])))
        << "pattern " << pattern;
  }
}

TEST(DegreeDistributionTest, LaneInstantiationsMatchScalarRecurrence) {
  // The two- and four-lane recurrences, called directly (here built
  // without AVX, so both run on any x86-64 host), against the scalar
  // one, on TwoLaneKernelMatchesScalarRecurrence's patterns grown to
  // degree 1,200: every degree's PMF, edge by edge, and whole PMFs built
  // at once. BuildPmf, and the AVX2 build where this CPU has AVX2, must
  // agree too.
  constexpr std::size_t kMaxDegree = 1200;
  const std::vector<double> specials = {
      0.0, 1.0, 0.5, 1e-300, 1.0 - 0x1.0p-53, -0.1, 1.5};
  Rng rng(2018);
  std::vector<std::vector<double>> patterns;
  for (const double p : specials) {
    patterns.emplace_back(kMaxDegree, p);
  }
  std::vector<double> uniform(kMaxDegree);
  for (double& p : uniform) p = rng.UniformDouble();
  patterns.push_back(uniform);
  std::vector<double> mixed(kMaxDegree);
  for (std::size_t i = 0; i < kMaxDegree; ++i) {
    mixed[i] = i % 3 == 0 ? specials[(i / 3) % specials.size()]
                          : rng.UniformDouble();
  }
  patterns.push_back(mixed);

  const auto built = [](auto build, const std::vector<double>& probs,
                        std::size_t d) {
    std::vector<double> pmf(d + 1);
    build(pmf.data(), probs.data(), d);
    return pmf;
  };
  for (std::size_t pattern = 0; pattern < patterns.size(); ++pattern) {
    SCOPED_TRACE(testing::Message() << "pattern " << pattern);
    const std::vector<double>& probs = patterns[pattern];
    std::vector<double> oracle = {1.0};
    std::vector<double> two(kMaxDegree + 1);
    std::vector<double> four(kMaxDegree + 1);
    two[0] = 1.0;
    four[0] = 1.0;
    for (std::size_t d = 1; d <= kMaxDegree; ++d) {
      ScalarAddEdge(oracle, probs[d - 1]);
      internal::ConvolveEdgeLanes<2>(two.data(), d, probs[d - 1]);
      internal::ConvolveEdgeLanes<4>(four.data(), d, probs[d - 1]);
      ASSERT_EQ(std::memcmp(two.data(), oracle.data(),
                            oracle.size() * sizeof(double)),
                0)
          << "two lanes, degree " << d;
      ASSERT_EQ(std::memcmp(four.data(), oracle.data(),
                            oracle.size() * sizeof(double)),
                0)
          << "four lanes, degree " << d;
    }
    for (std::size_t d = 0; d <= kMaxDegree; d += d < 40 ? 1 : 97) {
      const std::vector<double> want =
          ScalarPmf(std::span<const double>(probs.data(), d));
      ASSERT_TRUE(SameBits(built(internal::BuildPmfLanes<2>, probs, d), want))
          << "two lanes, degree " << d;
      ASSERT_TRUE(SameBits(built(internal::BuildPmfLanes<4>, probs, d), want))
          << "four lanes, degree " << d;
      ASSERT_TRUE(SameBits(built(internal::BuildPmf, probs, d), want))
          << "dispatched, degree " << d;
#if defined(__x86_64__) || defined(__i386__)
      if (__builtin_cpu_supports("avx2")) {
        ASSERT_TRUE(SameBits(built(internal::BuildPmfAvx2, probs, d), want))
            << "AVX2, degree " << d;
      }
#endif
    }
  }
}

TEST(DegreeDistributionTest, ForVertexUsesIncidentEdges) {
  UncertainGraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.25).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, 0.9).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  const DegreeDistribution dist = DegreeDistribution::ForVertex(*g, 0);
  const std::vector<double> expected =
      BruteForcePmf(std::vector<double>{0.25, 0.5});
  ASSERT_EQ(dist.pmf().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(dist.Pmf(k), expected[k], 1e-15);
  }
  // Isolated-in-expectation vertex 1 has exactly one incident edge.
  EXPECT_EQ(DegreeDistribution::ForVertex(*g, 1).num_edges(), 1u);
}

UncertainGraph RandomGraph(NodeId nodes, std::size_t edges, Rng* rng) {
  UncertainGraphBuilder builder(nodes);
  std::set<std::pair<NodeId, NodeId>> seen;
  while (seen.size() < edges) {
    auto u = static_cast<NodeId>(rng->UniformInt(nodes));
    auto v = static_cast<NodeId>(rng->UniformInt(nodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert({u, v}).second) continue;
    EXPECT_TRUE(builder.AddEdge(u, v, 0.05 + 0.9 * rng->UniformDouble()).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(DegreeDistributionTest, MonteCarloCrossValidation) {
  // ISSUE acceptance: the exact PMF agrees with Monte Carlo degree
  // sampling on a 100-node random graph, within CI bounds, across 10^6
  // sampled worlds. Sampling is restricted to the incident edges of the
  // vertices under test — the rest of the world draw cannot change
  // their degree.
  Rng rng(99);
  const UncertainGraph g = RandomGraph(100, 300, &rng);
  const std::vector<NodeId> targets = {0, 17, 54};
  constexpr std::size_t kWorlds = 1'000'000;

  for (const NodeId v : targets) {
    const auto incident = g.Neighbors(v);
    std::vector<double> probs;
    probs.reserve(incident.size());
    for (const auto& entry : incident) {
      probs.push_back(g.edge(entry.edge).p);
    }
    const DegreeDistribution exact =
        DegreeDistribution::FromProbabilities(probs);

    std::vector<std::size_t> counts(probs.size() + 1, 0);
    double mean_acc = 0.0;
    for (std::size_t w = 0; w < kWorlds; ++w) {
      std::size_t degree = 0;
      for (const double p : probs) {
        if (rng.Bernoulli(p)) ++degree;
      }
      ++counts[degree];
      mean_acc += static_cast<double>(degree);
    }

    // Per-bin frequency: binomial(10^6, p) — 5 sigma plus slack.
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const double p = exact.Pmf(k);
      const double freq =
          static_cast<double>(counts[k]) / static_cast<double>(kWorlds);
      const double sigma =
          std::sqrt(p * (1.0 - p) / static_cast<double>(kWorlds));
      EXPECT_NEAR(freq, p, 5.0 * sigma + 1e-6)
          << "vertex " << v << ", degree " << k;
    }
    // Degree mean: CLT bound from the exact variance.
    double variance = 0.0;
    for (const double p : probs) variance += p * (1.0 - p);
    const double mean_sigma =
        std::sqrt(variance / static_cast<double>(kWorlds));
    EXPECT_NEAR(mean_acc / static_cast<double>(kWorlds), exact.Mean(),
                5.0 * mean_sigma + 1e-9)
        << "vertex " << v;
  }
}

TEST(BuildDegreeDistributionsTest, DeterministicAcrossWorkerCounts) {
  // A sparse graph and a dense one (mean degree ~100, so the two-lane
  // kernel does most of the work).
  Rng rng(7);
  for (const auto& [nodes, edges] :
       {std::pair<NodeId, std::size_t>{200, 800},
        std::pair<NodeId, std::size_t>{400, 20000}}) {
    const UncertainGraph g = RandomGraph(nodes, edges, &rng);
    const std::vector<DegreeDistribution> serial =
        BuildDegreeDistributions(g, 1);
    const std::vector<DegreeDistribution> parallel =
        BuildDegreeDistributions(g, 8);
    ASSERT_EQ(serial.size(), g.num_nodes());
    ASSERT_EQ(parallel.size(), serial.size());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      // Bit-identical: the same per-vertex convolution runs regardless
      // of which worker claims the block, and it is the scalar one.
      EXPECT_TRUE(SameBits(serial[v].pmf(), parallel[v].pmf())) << v;
      std::vector<double> probs;
      for (const graph::AdjEntry& entry : g.Neighbors(v)) {
        probs.push_back(g.edge(entry.edge).p);
      }
      EXPECT_TRUE(SameBits(serial[v].pmf(), ScalarPmf(probs))) << v;
    }
  }
}

}  // namespace
}  // namespace chameleon::privacy
