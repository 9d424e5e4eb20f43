#include "chameleon/privacy/uniqueness.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/rng.h"
#include "privacy/uniqueness_oracle.h"

namespace chameleon::privacy {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// Expected degrees of an ER-like uncertain graph: `m` uniform vertex
/// pairs with p ~ U[0.2, 0.9]. Only the degree vector matters here, so
/// repeated pairs are not filtered.
std::vector<double> ErDegrees(std::size_t n, std::size_t m,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> degrees(n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    const double p = rng.Uniform(0.2, 0.9);
    degrees[rng.UniformInt(n)] += p;
    degrees[rng.UniformInt(n)] += p;
  }
  return degrees;
}

/// Expected degrees of a Chung–Lu-like graph with power-law exponent
/// `gamma`: endpoints drawn with probability ∝ (i + 1)^(−1/(γ−1)). With
/// `certain`, every edge has p = 1, so the degrees are integers, as a
/// Rep-An representative's are.
std::vector<double> ChungLuDegrees(std::size_t n, std::size_t m,
                                   double gamma, std::uint64_t seed,
                                   bool certain = false) {
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -1.0 / (gamma - 1.0));
    cumulative[i] = total;
  }
  Rng rng(seed);
  auto endpoint = [&] {
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                     rng.UniformDouble() * total);
    return std::min(static_cast<std::size_t>(it - cumulative.begin()),
                    n - 1);
  };
  std::vector<double> degrees(n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    const double p = certain ? 1.0 : rng.Uniform(0.2, 0.9);
    degrees[endpoint()] += p;
    degrees[endpoint()] += p;
  }
  return degrees;
}

std::vector<double> UniformValues(std::size_t n, double lo, double hi,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& x : values) x = rng.Uniform(lo, hi);
  return values;
}

double MaxRelativeDeviation(const std::vector<double>& got,
                            const std::vector<double>& want) {
  double worst = 0.0;
  for (std::size_t v = 0; v < want.size(); ++v) {
    worst = std::max(worst, std::abs(got[v] - want[v]) / want[v]);
  }
  return worst;
}

/// The ⌈ε/2·n⌉ vertices GenObf excludes: U descending, id ascending.
std::vector<std::size_t> TopH(const std::vector<double>& scores,
                              double epsilon) {
  const auto h = static_cast<std::size_t>(
      std::ceil(0.5 * epsilon * static_cast<double>(scores.size())));
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  order.resize(std::min(h, order.size()));
  return order;
}

/// Scores at `bandwidth` (0 = Silverman) agree with the pair-sum oracle
/// to 1e-12 relative; with `check_exclusion`, they also pick the same
/// exclusion sets at ε ∈ {0.01, 0.05, 0.1}.
void ExpectMatchesOracle(const std::vector<double>& values, double bandwidth,
                         bool check_exclusion) {
  UniquenessOptions options;
  options.bandwidth = bandwidth;
  const Result<UniquenessScores> fast = ComputeUniqueness(values, options);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  const std::vector<double> oracle = OracleUniqueness(values, fast->bandwidth);
  EXPECT_LE(MaxRelativeDeviation(fast->scores, oracle), 1e-12);
  if (!check_exclusion) return;
  for (const double epsilon : {0.01, 0.05, 0.1}) {
    EXPECT_EQ(TopH(fast->scores, epsilon), TopH(oracle, epsilon))
        << "epsilon " << epsilon;
  }
}

TEST(SilvermanBandwidthTest, MatchesRuleOfThumb) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  // Sample stddev of 1..5 is sqrt(2.5).
  const double expected = 1.06 * std::sqrt(2.5) * std::pow(5.0, -0.2);
  EXPECT_NEAR(SilvermanBandwidth(values), expected, 1e-12);
}

TEST(SilvermanBandwidthTest, DegenerateInputsFallBackToOne) {
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({}), 1.0);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({3.0}), 1.0);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({2.0, 2.0, 2.0}), 1.0);
}

TEST(SpreadBandwidthTest, IsTheSampleStddev) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(SpreadBandwidth(values), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(SpreadBandwidth({7.0, 7.0}), 1.0);
}

TEST(ComputeUniquenessTest, IdenticalPopulationSharesOneScore) {
  // Every vertex contributes K(0) = 1 to every other: C = n, U = 1/n.
  const std::vector<double> values(10, 4.0);
  UniquenessOptions options;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->scores.size(), 10u);
  for (const double u : scores->scores) EXPECT_NEAR(u, 0.1, 1e-12);
}

TEST(ComputeUniquenessTest, OutlierIsMoreUnique) {
  // Nine clustered values and one far outlier: the outlier's commonness
  // is ~1 (just itself), so its uniqueness approaches the upper bound.
  std::vector<double> values(9, 2.0);
  values.push_back(100.0);
  UniquenessOptions options;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  const double clustered = scores->scores[0];
  const double outlier = scores->scores[9];
  EXPECT_GT(outlier, clustered);
  // The cluster sits ~4.7 bandwidths away, contributing ~1e-4 total.
  EXPECT_NEAR(outlier, 1.0, 1e-3);
  EXPECT_LE(outlier, 1.0);
  for (const double u : scores->scores) {
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ComputeUniquenessTest, MatchesDirectKernelSum) {
  const std::vector<double> values = {0.0, 1.0, 1.5, 4.0, 4.2};
  UniquenessOptions options;
  options.bandwidth = 0.8;
  const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores->bandwidth, 0.8);
  for (std::size_t v = 0; v < values.size(); ++v) {
    double commonness = 0.0;
    for (const double u : values) {
      const double z = (values[v] - u) / 0.8;
      commonness += std::exp(-0.5 * z * z);
    }
    EXPECT_NEAR(scores->scores[v], 1.0 / commonness, 1e-12);
  }
}

TEST(ComputeUniquenessTest, RejectsBadInputs) {
  const auto rejected = [](const std::vector<double>& values,
                           const UniquenessOptions& options) {
    const Result<UniquenessScores> scores = ComputeUniqueness(values, options);
    return !scores.ok() &&
           scores.status().code() == StatusCode::kInvalidArgument;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  UniquenessOptions options;
  EXPECT_TRUE(rejected({}, options));
  // A non-finite value would break the sort's ordering contract.
  EXPECT_TRUE(rejected({1.0, std::nan(""), 2.0}, options));
  EXPECT_TRUE(rejected({1.0, kInf}, options));
  EXPECT_TRUE(rejected({-kInf, 1.0}, options));
  options.bandwidth = 0.5;
  EXPECT_TRUE(rejected({1.0, std::nan("")}, options));
  EXPECT_TRUE(rejected({1.0, kInf}, options));
  options.bandwidth = -1.0;
  EXPECT_TRUE(rejected({1.0}, options));
  options.bandwidth = std::nan("");
  EXPECT_TRUE(rejected({1.0}, options));
  options.bandwidth = kInf;
  EXPECT_TRUE(rejected({1.0}, options));
  // Finite values whose spread overflows leave Silverman's rule nothing.
  options.bandwidth = 0.0;
  EXPECT_TRUE(rejected({-1e308, 1e308}, options));
}

TEST(ComputeUniquenessTest, DeterministicAcrossWorkerCounts) {
  // Expected degrees, nearly all distinct, so every vertex is scored; and
  // a representative's integer degrees, few of them distinct, so each
  // distinct value is scored once and looked up. Their runs of equal
  // values are longer than a 256-target block.
  const std::vector<double> expected = ChungLuDegrees(20000, 100000, 2.5, 5);
  const std::vector<double> integer =
      ChungLuDegrees(20000, 100000, 2.5, 5, /*certain=*/true);
  std::vector<double> sorted = integer;
  std::sort(sorted.begin(), sorted.end());
  std::size_t runs = 0;
  std::size_t longest_run = 0;
  for (std::size_t i = 0, j = 0; i < sorted.size(); i = j) {
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    ++runs;
    longest_run = std::max(longest_run, j - i);
  }
  ASSERT_LT(2 * runs, sorted.size());
  ASSERT_GT(longest_run, 4 * 256u);
  for (const std::vector<double>* values : {&expected, &integer}) {
    UniquenessOptions options;
    options.threads = 1;
    const Result<UniquenessScores> serial = ComputeUniqueness(*values, options);
    ASSERT_TRUE(serial.ok());
    for (std::size_t v = 0; v < values->size(); ++v) {
      ASSERT_GT(serial->scores[v], 0.0) << "vertex " << v;
    }
    for (const int threads : {2, 7, 8}) {
      options.threads = threads;
      const Result<UniquenessScores> parallel =
          ComputeUniqueness(*values, options);
      ASSERT_TRUE(parallel.ok());
      // Bitwise, not approximate.
      EXPECT_EQ(parallel->scores, serial->scores) << threads << " threads";
    }
  }
}

TEST(UniquenessOracleTest, ErDegrees) {
  ExpectMatchesOracle(ErDegrees(5000, 20000, 1), 0.0, true);
}

TEST(UniquenessOracleTest, ChungLuDegrees) {
  ExpectMatchesOracle(ChungLuDegrees(5000, 25000, 2.5, 2), 0.0, true);
}

TEST(UniquenessOracleTest, TiedIntegerDegreesKeepTheLowerIdTieBreak) {
  // Deterministic degrees: thousands of exact ties, so the exclusion sets
  // agree only if equal values get bitwise-equal scores in both.
  Rng rng(3);
  std::vector<double> degrees(5000, 0.0);
  for (int e = 0; e < 20000; ++e) {
    degrees[rng.UniformInt(degrees.size())] += 1.0;
    degrees[rng.UniformInt(degrees.size())] += 1.0;
  }
  ExpectMatchesOracle(degrees, 0.0, true);
}

TEST(UniquenessOracleTest, SingleVertex) {
  ExpectMatchesOracle({3.5}, 0.0, true);
  const Result<UniquenessScores> scores = ComputeUniqueness({3.5}, {});
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->scores, std::vector<double>{1.0});
}

TEST(UniquenessOracleTest, AllEqual) {
  const std::vector<double> values(5000, 7.25);
  ExpectMatchesOracle(values, 0.0, true);
  const Result<UniquenessScores> scores = ComputeUniqueness(values, {});
  ASSERT_TRUE(scores.ok());
  for (const double u : scores->scores) EXPECT_EQ(u, scores->scores[0]);
}

TEST(UniquenessOracleTest, TwoClustersFarApart) {
  std::vector<double> values = UniformValues(1000, 0.0, 10.0, 4);
  for (const double x : UniformValues(1000, 1e6, 1e6 + 10.0, 5)) {
    values.push_back(x);
  }
  ExpectMatchesOracle(values, 0.0, false);
  ExpectMatchesOracle(values, SpreadBandwidth(values), false);
}

TEST(UniquenessOracleTest, TinyBandwidth) {
  // ~0.02 between neighbours at θ = 1e-3: nearly every box is a singleton.
  ExpectMatchesOracle(UniformValues(5000, 0.0, 100.0, 6), 1e-3, false);
}

TEST(UniquenessOracleTest, SpreadBandwidth) {
  const std::vector<double> values = ErDegrees(5000, 20000, 7);
  ExpectMatchesOracle(values, SpreadBandwidth(values), false);
}

TEST(UniquenessOracleTest, RelabellingPermutesScoresBitwise) {
  const std::vector<double> values = ChungLuDegrees(5000, 25000, 2.5, 8);
  std::vector<std::size_t> perm(values.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(9);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<double> permuted(values.size());
  for (std::size_t v = 0; v < values.size(); ++v) permuted[v] = values[perm[v]];
  const Result<UniquenessScores> a = ComputeUniqueness(values, {});
  const Result<UniquenessScores> b = ComputeUniqueness(permuted, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(b->scores[v], a->scores[perm[v]]) << "vertex " << v;
  }
}

TEST(ComputeUniquenessTest, GraphOverloadUsesExpectedDegrees) {
  // Star: the center's expected degree (2.7) is far from the leaves'
  // (0.9), so the center is the most unique vertex.
  UncertainGraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.9).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3, 0.9).ok());
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  UniquenessOptions options;
  const Result<UniquenessScores> from_graph = ComputeUniqueness(*g, options);
  const Result<UniquenessScores> from_values =
      ComputeUniqueness(g->expected_degrees(), options);
  ASSERT_TRUE(from_graph.ok());
  ASSERT_TRUE(from_values.ok());
  EXPECT_EQ(from_graph->scores, from_values->scores);
  EXPECT_GT(from_graph->scores[0], from_graph->scores[1]);
}

}  // namespace
}  // namespace chameleon::privacy
