#include "chameleon/privacy/obfuscation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/generators.h"
#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/util/rng.h"

namespace chameleon::privacy {
namespace {

using graph::UncertainGraph;
using graph::UncertainGraphBuilder;

/// 12-cycle, every edge p = 0.5 — the committed obfuscated fixture,
/// rebuilt in code so the unit tests do not depend on example files.
UncertainGraph MakeCycle12() {
  UncertainGraphBuilder builder(12);
  for (NodeId u = 0; u < 12; ++u) {
    EXPECT_TRUE(builder.AddEdge(u, (u + 1) % 12, 0.5).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Center 0 plus 8 leaves, every edge p = 0.9 — the committed
/// non-obfuscated fixture.
UncertainGraph MakeStar9() {
  UncertainGraphBuilder builder(9);
  for (NodeId leaf = 1; leaf < 9; ++leaf) {
    EXPECT_TRUE(builder.AddEdge(0, leaf, 0.9).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(VerifyObfuscationTest, UniformCycleIsFullyObfuscated) {
  // Every vertex shares omega = 1 and the posterior is uniform over all
  // 12 vertices: H = log2(12) for everyone.
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.01;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->obfuscated);
  EXPECT_EQ(cert->not_obfuscated, 0u);
  EXPECT_DOUBLE_EQ(cert->epsilon_hat, 0.0);
  EXPECT_EQ(cert->vertices, 12u);
  EXPECT_EQ(cert->distinct_omegas, 1u);
  EXPECT_NEAR(cert->min_entropy_bits, std::log2(12.0), 1e-12);
  EXPECT_NEAR(cert->mean_entropy_bits, std::log2(12.0), 1e-12);
  ASSERT_EQ(cert->per_vertex.size(), 12u);
  for (const VertexObfuscation& row : cert->per_vertex) {
    EXPECT_EQ(row.omega, 1u);
    EXPECT_TRUE(row.obfuscated);
    EXPECT_NEAR(row.k_anonymity, 12.0, 1e-9);
  }
}

TEST(VerifyObfuscationTest, StarCenterIsExposed) {
  // The center's omega = round(7.2) = 7 is realizable only by the
  // center itself, so its posterior entropy collapses to ~0; the eight
  // leaves share omega = 1. eps_hat = 1/9 fails eps = 0.05 but passes
  // eps = 0.2.
  const UncertainGraph g = MakeStar9();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_FALSE(cert->obfuscated);
  EXPECT_EQ(cert->not_obfuscated, 1u);
  EXPECT_NEAR(cert->epsilon_hat, 1.0 / 9.0, 1e-12);
  EXPECT_EQ(cert->distinct_omegas, 2u);
  EXPECT_LT(cert->min_entropy_bits, 0.1);
  ASSERT_EQ(cert->per_vertex.size(), 9u);
  EXPECT_EQ(cert->per_vertex[0].omega, 7u);
  EXPECT_FALSE(cert->per_vertex[0].obfuscated);
  for (NodeId leaf = 1; leaf < 9; ++leaf) {
    EXPECT_TRUE(cert->per_vertex[leaf].obfuscated) << "leaf " << leaf;
  }

  options.epsilon = 0.2;
  const Result<ObfuscationCertificate> tolerant = VerifyObfuscation(g, options);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_TRUE(tolerant->obfuscated);
  EXPECT_EQ(tolerant->not_obfuscated, 1u);
}

TEST(VerifyObfuscationTest, StructuralAdversaryOnDeterministicGraph) {
  // With p = 1 everywhere the PMF is a point mass at the structural
  // degree, and both adversary models coincide. A 4-cycle is perfectly
  // 4-anonymous by degree.
  UncertainGraphBuilder builder(4);
  for (NodeId u = 0; u < 4; ++u) {
    ASSERT_TRUE(builder.AddEdge(u, (u + 1) % 4, 1.0).ok());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  ObfuscationOptions options;
  options.k = 4.0;
  options.epsilon = 0.0;
  options.adversary = AdversaryModel::kStructuralDegree;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(*g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->obfuscated);
  EXPECT_NEAR(cert->min_entropy_bits, 2.0, 1e-12);
  EXPECT_EQ(AdversaryModelName(cert->adversary), "structural_degree");
}

TEST(VerifyObfuscationTest, KeepPerVertexOffOmitsRows) {
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 8.0;
  options.keep_per_vertex = false;
  const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->per_vertex.empty());
  EXPECT_EQ(cert->vertices, 12u);
}

TEST(VerifyObfuscationTest, DeterministicAcrossWorkerCounts) {
  const UncertainGraph g = MakeStar9();
  ObfuscationOptions serial;
  serial.k = 8.0;
  serial.threads = 1;
  ObfuscationOptions parallel = serial;
  parallel.threads = 8;
  const Result<ObfuscationCertificate> a = VerifyObfuscation(g, serial);
  const Result<ObfuscationCertificate> b = VerifyObfuscation(g, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Bit-identical entropies: the per-block partial sums are reduced in
  // fixed block order no matter which worker produced them.
  EXPECT_EQ(a->min_entropy_bits, b->min_entropy_bits);
  EXPECT_EQ(a->mean_entropy_bits, b->mean_entropy_bits);
  EXPECT_EQ(a->epsilon_hat, b->epsilon_hat);
  ASSERT_EQ(a->per_vertex.size(), b->per_vertex.size());
  for (std::size_t v = 0; v < a->per_vertex.size(); ++v) {
    EXPECT_EQ(a->per_vertex[v].entropy_bits, b->per_vertex[v].entropy_bits);
  }
}

/// The posterior sweep as it was before each block's partials were cut
/// to the block's longest PMF: every 256-vertex block gets S/T arrays as
/// wide as the global maximum and the merge adds them whole.
struct GlobalWidthCertificate {
  std::vector<double> entropy_bits;
  std::vector<bool> obfuscated;
  std::size_t not_obfuscated = 0;
  double epsilon_hat = 0.0;
  double min_entropy_bits = 0.0;
  double mean_entropy_bits = 0.0;
};

GlobalWidthCertificate GlobalWidthVerify(
    const UncertainGraph& graph, const std::vector<DegreeDistribution>& dists,
    double k, AdversaryModel adversary) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::size_t> omegas(n);
  std::size_t max_value = 0;
  for (NodeId v = 0; v < n; ++v) {
    omegas[v] =
        adversary == AdversaryModel::kStructuralDegree
            ? graph.Neighbors(v).size()
            : static_cast<std::size_t>(std::llround(graph.expected_degree(v)));
    max_value = std::max({max_value, omegas[v], dists[v].num_edges()});
  }
  const std::size_t width = max_value + 1;
  std::vector<double> sum(width, 0.0);
  std::vector<double> sum_xlogx(width, 0.0);
  for (std::size_t begin = 0; begin < n; begin += 256) {
    std::vector<double> s(width, 0.0);
    std::vector<double> t(width, 0.0);
    for (std::size_t u = begin; u < std::min(n, begin + 256); ++u) {
      const std::vector<double>& pmf = dists[u].pmf();
      for (std::size_t w = 0; w < pmf.size(); ++w) {
        const double x = pmf[w];
        if (x > 0.0) {
          s[w] += x;
          t[w] += x * std::log2(x);
        }
      }
    }
    for (std::size_t w = 0; w < width; ++w) {
      sum[w] += s[w];
      sum_xlogx[w] += t[w];
    }
  }
  GlobalWidthCertificate cert;
  double entropy_sum = 0.0;
  cert.min_entropy_bits = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t w = omegas[v];
    const double h =
        sum[w] > 0.0
            ? std::max(0.0, std::log2(sum[w]) - sum_xlogx[w] / sum[w])
            : 0.0;
    const bool obfuscated = h + 1e-12 >= std::log2(k);
    if (!obfuscated) ++cert.not_obfuscated;
    cert.entropy_bits.push_back(h);
    cert.obfuscated.push_back(obfuscated);
    entropy_sum += h;
    cert.min_entropy_bits = std::min(cert.min_entropy_bits, h);
  }
  cert.epsilon_hat =
      static_cast<double>(cert.not_obfuscated) / static_cast<double>(n);
  cert.mean_entropy_bits = entropy_sum / static_cast<double>(n);
  return cert;
}

/// A hub joined to 5,000 of 12,000 other vertices, which also form a
/// path plus up to 6,000 random chords: every 256-vertex block but the
/// hub's has short PMFs.
UncertainGraph MakeHubGraph() {
  constexpr NodeId kNodes = 12001;
  Rng rng(2018);
  UncertainGraphBuilder builder(kNodes);
  for (NodeId v = 1; v <= 5000; ++v) {
    EXPECT_TRUE(builder.AddEdge(0, v, rng.Uniform(0.2, 0.9)).ok());
  }
  for (NodeId v = 1; v + 1 < kNodes; ++v) {
    EXPECT_TRUE(builder.AddEdge(v, v + 1, rng.Uniform(0.2, 0.9)).ok());
  }
  for (int extra = 0; extra < 6000; ++extra) {
    const auto u = static_cast<NodeId>(1 + rng.UniformInt(kNodes - 1));
    const auto v = static_cast<NodeId>(1 + rng.UniformInt(kNodes - 1));
    if (u + 1 < v) {
      (void)builder.AddEdge(u, v, rng.Uniform(0.2, 0.9));  // skips repeats
    }
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(VerifyObfuscationTest, BlockWidePartialsMatchGlobalWidthSweep) {
  const UncertainGraph g = MakeHubGraph();
  ASSERT_GE(g.Neighbors(0).size(), 5000u);
  ASSERT_GE(g.num_nodes(), 10001u);
  const std::vector<DegreeDistribution> dists =
      BuildDegreeDistributions(g, 1);
  // The structural adversary's ω is the vertex degree, so it reads the
  // last entry of every block's longest PMF.
  const std::vector<std::pair<AdversaryModel, double>> cases = {
      {AdversaryModel::kRoundedExpectedDegree, 2.0},
      {AdversaryModel::kRoundedExpectedDegree, 50.0},
      {AdversaryModel::kRoundedExpectedDegree, 1000.0},
      {AdversaryModel::kStructuralDegree, 2.0},
      {AdversaryModel::kStructuralDegree, 50.0},
      {AdversaryModel::kStructuralDegree, 1000.0}};
  for (const auto& [adversary, k] : cases) {
    const GlobalWidthCertificate want =
        GlobalWidthVerify(g, dists, k, adversary);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message()
                   << AdversaryModelName(adversary) << " k=" << k
                   << " threads=" << threads);
      ObfuscationOptions options;
      options.k = k;
      options.epsilon = 0.5;
      options.adversary = adversary;
      options.threads = threads;
      const Result<ObfuscationCertificate> got =
          VerifyObfuscation(g, dists, options);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->per_vertex.size(), g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const VertexObfuscation& row = got->per_vertex[v];
        ASSERT_EQ(row.entropy_bits, want.entropy_bits[v]) << "vertex " << v;
        ASSERT_EQ(row.k_anonymity, std::exp2(want.entropy_bits[v]));
        ASSERT_EQ(row.obfuscated, want.obfuscated[v]);
      }
      EXPECT_EQ(got->not_obfuscated, want.not_obfuscated);
      EXPECT_EQ(got->epsilon_hat, want.epsilon_hat);
      EXPECT_EQ(got->min_entropy_bits, want.min_entropy_bits);
      EXPECT_EQ(got->mean_entropy_bits, want.mean_entropy_bits);
    }
  }
}

TEST(VerifyObfuscationTest, EntropyIsFixedAndExposureGrowsWithK) {
  // The posteriors do not depend on k, only the log₂ k line they are
  // held to: each vertex's entropy is the same at every k, and raising
  // the line can only expose more vertices.
  const UncertainGraph g = MakeHubGraph();
  const std::vector<DegreeDistribution> dists =
      BuildDegreeDistributions(g, 2);
  ObfuscationOptions options;
  options.epsilon = 0.5;
  options.threads = 2;
  options.k = 2.0;
  const Result<ObfuscationCertificate> first =
      VerifyObfuscation(g, dists, options);
  ASSERT_TRUE(first.ok());
  std::size_t previous_exposed = first->not_obfuscated;
  double previous_epsilon_hat = first->epsilon_hat;
  for (int log_k = 2; log_k <= 12; ++log_k) {
    options.k = std::exp2(log_k);
    SCOPED_TRACE(options.k);
    const Result<ObfuscationCertificate> cert =
        VerifyObfuscation(g, dists, options);
    ASSERT_TRUE(cert.ok());
    ASSERT_EQ(cert->per_vertex.size(), first->per_vertex.size());
    for (std::size_t v = 0; v < cert->per_vertex.size(); ++v) {
      ASSERT_EQ(cert->per_vertex[v].entropy_bits,
                first->per_vertex[v].entropy_bits)
          << "vertex " << v;
    }
    EXPECT_GE(cert->not_obfuscated, previous_exposed);
    EXPECT_GE(cert->epsilon_hat, previous_epsilon_hat);
    previous_exposed = cert->not_obfuscated;
    previous_epsilon_hat = cert->epsilon_hat;
  }
  // The sweep must cross the graph's entropies, not sit below them all.
  EXPECT_LT(first->not_obfuscated, previous_exposed);
}

/// 3,000 vertices of which every third has no edge, including the last
/// ones; the rest form a path with random chords.
UncertainGraph MakeGraphWithIsolatedVertices() {
  constexpr NodeId kNodes = 3000;
  Rng rng(99);
  UncertainGraphBuilder builder(kNodes);
  std::vector<NodeId> linked;
  for (NodeId v = 0; v < kNodes - 10; ++v) {
    if (v % 3 != 2) linked.push_back(v);
  }
  for (std::size_t i = 1; i < linked.size(); ++i) {
    EXPECT_TRUE(
        builder.AddEdge(linked[i - 1], linked[i], rng.Uniform(0.05, 0.95))
            .ok());
  }
  for (std::size_t i = 0; i + 2 < linked.size(); i += 2) {
    const std::size_t j = i + 2 + rng.UniformInt(linked.size() - i - 2);
    (void)builder.AddEdge(linked[i], linked[j], rng.Uniform(0.05, 0.95));
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Stars whose centers mix certain edges, p ∈ {0, 1}, with fractional
/// ones. For each count u ∈ [0, 9] of fractional edges (across the
/// two- and four-lane tails of the recurrence), c ∈ [0, 5] of p = 1
/// edges and z ∈ {0, 2} of p = 0 edges, three centers list their
/// certain edges first, last and interleaved in adjacency order. Each
/// leaf has one edge, so leaves have only p = 1 edges, only p = 0 edges
/// or one fractional edge; the centers with u = 0 have only certain
/// edges, and those with u = c = 0, z = 2 only p = 0 edges.
UncertainGraph MakeMixedCertaintyStars() {
  Rng rng(31);
  std::vector<std::vector<double>> stars;
  for (std::size_t u = 0; u <= 9; ++u) {
    for (std::size_t c = 0; c <= 5; ++c) {
      for (const std::size_t z : {std::size_t{0}, std::size_t{2}}) {
        std::vector<double> fractional(u);
        for (double& p : fractional) p = rng.Uniform(0.02, 0.98);
        std::vector<double> certain(c, 1.0);
        certain.insert(certain.end(), z, 0.0);
        std::shuffle(certain.begin(), certain.end(), rng);
        std::vector<double> first = certain;
        first.insert(first.end(), fractional.begin(), fractional.end());
        std::vector<double> last = fractional;
        last.insert(last.end(), certain.begin(), certain.end());
        std::vector<double> interleaved;
        for (std::size_t i = 0; i < std::max(certain.size(), fractional.size());
             ++i) {
          if (i < certain.size()) interleaved.push_back(certain[i]);
          if (i < fractional.size()) interleaved.push_back(fractional[i]);
        }
        stars.push_back(std::move(first));
        stars.push_back(std::move(last));
        stars.push_back(std::move(interleaved));
      }
    }
  }
  std::size_t nodes = 0;
  for (const std::vector<double>& star : stars) nodes += 1 + star.size();
  UncertainGraphBuilder builder(static_cast<NodeId>(nodes));
  NodeId center = 0;
  for (const std::vector<double>& star : stars) {
    // Leaf ids ascend, so the center's adjacency lists the star's edges
    // in the order given.
    for (std::size_t i = 0; i < star.size(); ++i) {
      EXPECT_TRUE(
          builder.AddEdge(center, center + 1 + static_cast<NodeId>(i), star[i])
              .ok());
    }
    center += 1 + static_cast<NodeId>(star.size());
  }
  Result<UncertainGraph> g = std::move(builder).Build();
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Probabilities for `g` as a Rep-An attempt sees them: each edge p = 1
/// with probability 0.6, p = 0 with probability 0.1, and its own p
/// otherwise.
std::vector<double> MostlyCertainProbabilities(const UncertainGraph& g,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> p(g.num_edges());
  for (std::size_t e = 0; e < p.size(); ++e) {
    const double draw = rng.UniformDouble();
    p[e] = draw < 0.6 ? 1.0 : draw < 0.7 ? 0.0 : g.edges()[e].p;
  }
  return p;
}

UncertainGraph WithMostlyCertainEdges(const UncertainGraph& g) {
  return g.WithProbabilities(MostlyCertainProbabilities(g, 5)).value();
}

/// Every certificate field but wall_ms, and every per-vertex row, bit for
/// bit.
void ExpectSameCertificate(const ObfuscationCertificate& got,
                           const ObfuscationCertificate& want) {
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.epsilon, want.epsilon);
  EXPECT_EQ(got.vertices, want.vertices);
  EXPECT_EQ(got.not_obfuscated, want.not_obfuscated);
  EXPECT_EQ(got.epsilon_hat, want.epsilon_hat);
  EXPECT_EQ(got.obfuscated, want.obfuscated);
  EXPECT_EQ(got.min_entropy_bits, want.min_entropy_bits);
  EXPECT_EQ(got.mean_entropy_bits, want.mean_entropy_bits);
  EXPECT_EQ(got.distinct_omegas, want.distinct_omegas);
  EXPECT_EQ(got.adversary, want.adversary);
  EXPECT_EQ(got.threads, want.threads);
  ASSERT_EQ(got.per_vertex.size(), want.per_vertex.size());
  for (std::size_t v = 0; v < want.per_vertex.size(); ++v) {
    const VertexObfuscation& a = got.per_vertex[v];
    const VertexObfuscation& b = want.per_vertex[v];
    ASSERT_EQ(a.vertex, b.vertex);
    ASSERT_EQ(a.omega, b.omega) << "vertex " << v;
    ASSERT_EQ(a.entropy_bits, b.entropy_bits) << "vertex " << v;
    ASSERT_EQ(a.k_anonymity, b.k_anonymity) << "vertex " << v;
    ASSERT_EQ(a.obfuscated, b.obfuscated) << "vertex " << v;
  }
}

TEST(VerifyObfuscationTest, ReusedDistributionsMatchInternalBuild) {
  // The one-graph overload builds each block's PMFs in scratch, from each
  // vertex's fractional edges at an offset of its p = 1 edges; its
  // certificate must equal BuildDegreeDistributions (the full recurrence
  // over every edge) + the overload that takes them, bit for bit.
  const UncertainGraph graphs[] = {
      MakeStar9(), MakeHubGraph(), MakeGraphWithIsolatedVertices(),
      MakeMixedCertaintyStars(), WithMostlyCertainEdges(MakeHubGraph())};
  ASSERT_TRUE(graphs[2].Neighbors(2).empty());
  ASSERT_TRUE(graphs[2].Neighbors(graphs[2].num_nodes() - 1).empty());
  for (const UncertainGraph& g : graphs) {
    const std::vector<DegreeDistribution> dists =
        BuildDegreeDistributions(g, 2);
    std::size_t exposed = 0;
    for (const auto& [adversary, k] :
         {std::pair{AdversaryModel::kRoundedExpectedDegree, 16.0},
          std::pair{AdversaryModel::kRoundedExpectedDegree, 1024.0},
          std::pair{AdversaryModel::kStructuralDegree, 16.0},
          std::pair{AdversaryModel::kStructuralDegree, 1024.0}}) {
      for (const int threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(testing::Message()
                     << g.num_nodes() << " vertices, "
                     << AdversaryModelName(adversary) << ", k " << k
                     << ", threads " << threads);
        ObfuscationOptions options;
        options.k = k;
        options.epsilon = 0.5;
        options.adversary = adversary;
        options.threads = threads;
        const Result<ObfuscationCertificate> want =
            VerifyObfuscation(g, dists, options);
        const Result<ObfuscationCertificate> got =
            VerifyObfuscation(g, options);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        ExpectSameCertificate(*got, *want);
        exposed += got->not_obfuscated;
      }
    }
    // Some vertices must sit below the log₂k line for the rows to differ.
    EXPECT_GT(exposed, 0u);
  }
}

TEST(VerifyObfuscationTest, RejectsBadArguments) {
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 1.0;  // must be > 1
  EXPECT_FALSE(VerifyObfuscation(g, options).ok());
  // ...and finite: no entropy reaches log2(inf), and a verdict's JSON
  // cannot carry an infinite k.
  for (const double k : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    options.k = k;
    const Result<ObfuscationCertificate> cert = VerifyObfuscation(g, options);
    ASSERT_FALSE(cert.ok());
    EXPECT_EQ(cert.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cert.status().message().find("k = "), std::string::npos)
        << cert.status().ToString();
  }
  options.k = 8.0;
  options.epsilon = 1.5;  // outside [0, 1]
  EXPECT_FALSE(VerifyObfuscation(g, options).ok());
  options.epsilon = 0.1;
  // Mismatched distribution count.
  const std::vector<DegreeDistribution> wrong(3);
  EXPECT_FALSE(VerifyObfuscation(g, wrong, options).ok());
  // Empty graph.
  Result<UncertainGraph> empty = UncertainGraphBuilder(0).Build();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(VerifyObfuscation(*empty, options).ok());
}

TEST(VerifyObfuscationTest, EmitsPrivacyCheckRecord) {
  const std::string path = testing::TempDir() + "/chameleon_privacy.jsonl";
  std::remove(path.c_str());
  obs::ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(obs_options).ok());

  const UncertainGraph g = MakeStar9();
  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  ASSERT_TRUE(VerifyObfuscation(g, options).ok());
  obs::ShutdownObservability();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string record;
  for (std::string line; std::getline(in, line);) {
    if (obs::JsonlStringField(line, "type") == "privacy_check") {
      record = line;
    }
  }
  ASSERT_FALSE(record.empty()) << "no privacy_check record in " << path;
  EXPECT_EQ(obs::JsonlNumberField(record, "k"), 8.0);
  EXPECT_EQ(obs::JsonlNumberField(record, "vertices"), 9.0);
  EXPECT_EQ(obs::JsonlNumberField(record, "not_obfuscated"), 1.0);
  EXPECT_NE(record.find("\"obfuscated\":false"), std::string::npos);
  EXPECT_EQ(obs::JsonlStringField(record, "adversary"), "expected_degree");
  std::remove(path.c_str());
}

TEST(VerifyObfuscationTest, CommittedFixturesClassifyCorrectly) {
  // The committed example graphs are the CI smoke inputs; assert here
  // that the library agrees with the verdicts scripts/check_obf.py
  // expects, so a fixture edit cannot silently invalidate the smoke.
  const std::string dir = CHAMELEON_EXAMPLES_DIR;
  const Result<UncertainGraph> cycle =
      graph::ReadEdgeList(dir + "/graphs/cycle_obfuscated.edges");
  ASSERT_TRUE(cycle.ok());
  const Result<UncertainGraph> star =
      graph::ReadEdgeList(dir + "/graphs/star_not_obfuscated.edges");
  ASSERT_TRUE(star.ok());

  ObfuscationOptions options;
  options.k = 8.0;
  options.epsilon = 0.05;
  const Result<ObfuscationCertificate> good =
      VerifyObfuscation(*cycle, options);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->obfuscated);
  const Result<ObfuscationCertificate> bad = VerifyObfuscation(*star, options);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->obfuscated);
}

/// Dense ER: 600 vertices at mean degree 60, p in [0.2, 0.9), so under
/// the expected-degree adversary every ω sits well above 0 and below the
/// largest degree: the fold's ω range is strictly inside every wide PMF.
UncertainGraph MakeDenseEr() {
  Rng rng(4242);
  return graph::RandomGraph(
             {.nodes = 600, .avg_degree = 60.0, .p_min = 0.2, .p_max = 0.9},
             rng)
      .value();
}

/// A p̃ for `g` unlike its own p: each p moved toward 1/2 by a seeded
/// fraction, as max-entropy noise moves it, and every 97th edge set to 0
/// and every 89th to 1.
std::vector<double> PerturbedProbabilities(const UncertainGraph& g,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> p(g.num_edges());
  for (std::size_t e = 0; e < p.size(); ++e) {
    const double old = g.edges()[e].p;
    p[e] = old + (1.0 - 2.0 * old) * rng.UniformDouble();
    if (e % 97 == 0) p[e] = 0.0;
    if (e % 89 == 0) p[e] = 1.0;
  }
  return p;
}

TEST(VerifyObfuscationTest, ProbabilityVectorMatchesGraphWithThoseProbabilities) {
  // VerifyObfuscation(g, p̃) against the one-graph overload on
  // g.WithProbabilities(p̃), against the dists overload on that graph's
  // distributions (the full recurrence over every edge) and against the
  // global-width sweep on them, bit for bit. The last two p̃ mix p̃ = 0
  // and p̃ = 1 edges with fractional ones.
  struct Case {
    UncertainGraph graph;
    std::vector<double> p;
  };
  std::vector<Case> cases;
  for (UncertainGraph g : {MakeDenseEr(), MakeGraphWithIsolatedVertices(),
                           MakeHubGraph()}) {
    std::vector<double> p = PerturbedProbabilities(g, g.num_nodes());
    cases.push_back({std::move(g), std::move(p)});
  }
  {
    UncertainGraph stars = MakeMixedCertaintyStars();
    std::vector<double> p(stars.num_edges());
    for (std::size_t e = 0; e < p.size(); ++e) p[e] = stars.edges()[e].p;
    cases.push_back({std::move(stars), std::move(p)});
    UncertainGraph hub = MakeHubGraph();
    p = MostlyCertainProbabilities(hub, 6);
    cases.push_back({std::move(hub), std::move(p)});
  }
  for (const Case& c : cases) {
    const UncertainGraph& g = c.graph;
    const Result<UncertainGraph> published = g.WithProbabilities(c.p);
    ASSERT_TRUE(published.ok());
    const std::vector<DegreeDistribution> dists =
        BuildDegreeDistributions(*published, 2);
    for (const auto& [adversary, k] :
         {std::pair{AdversaryModel::kRoundedExpectedDegree, 16.0},
          std::pair{AdversaryModel::kRoundedExpectedDegree, 1024.0},
          std::pair{AdversaryModel::kStructuralDegree, 16.0},
          std::pair{AdversaryModel::kStructuralDegree, 1024.0}}) {
      const GlobalWidthCertificate oracle =
          GlobalWidthVerify(*published, dists, k, adversary);
      for (const int threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(testing::Message()
                     << g.num_nodes() << " vertices, "
                     << AdversaryModelName(adversary) << ", k " << k
                     << ", threads " << threads);
        ObfuscationOptions options;
        options.k = k;
        options.epsilon = 0.5;
        options.adversary = adversary;
        options.threads = threads;
        const Result<ObfuscationCertificate> got =
            VerifyObfuscation(g, c.p, options);
        const Result<ObfuscationCertificate> want =
            VerifyObfuscation(*published, options);
        const Result<ObfuscationCertificate> from_dists =
            VerifyObfuscation(*published, dists, options);
        ASSERT_TRUE(got.ok()) << got.status().message();
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(from_dists.ok());
        ASSERT_EQ(got->per_vertex.size(), g.num_nodes());
        ExpectSameCertificate(*got, *want);
        ExpectSameCertificate(*got, *from_dists);
        std::size_t min_omega = g.num_nodes();
        std::size_t max_omega = 0;
        for (std::size_t v = 0; v < g.num_nodes(); ++v) {
          const VertexObfuscation& a = got->per_vertex[v];
          ASSERT_EQ(a.entropy_bits, oracle.entropy_bits[v]) << "vertex " << v;
          min_omega = std::min(min_omega, a.omega);
          max_omega = std::max(max_omega, a.omega);
        }
        EXPECT_EQ(got->not_obfuscated, oracle.not_obfuscated);
        EXPECT_EQ(got->min_entropy_bits, oracle.min_entropy_bits);
        EXPECT_EQ(got->mean_entropy_bits, oracle.mean_entropy_bits);
        if (&c == &cases[0] &&
            adversary == AdversaryModel::kRoundedExpectedDegree) {
          std::size_t max_degree = 0;
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            max_degree = std::max(max_degree, g.Neighbors(v).size());
          }
          EXPECT_GT(min_omega, 0u);
          EXPECT_LT(max_omega, max_degree);
        }
      }
    }
  }
}

TEST(VerifyObfuscationTest, RejectsBadProbabilityVectors) {
  const UncertainGraph g = MakeCycle12();
  ObfuscationOptions options;
  options.k = 8.0;
  const std::vector<double> p(g.num_edges(), 0.5);
  ASSERT_TRUE(VerifyObfuscation(g, p, options).ok());
  for (const std::size_t size : {g.num_edges() - 1, g.num_edges() + 1}) {
    const std::vector<double> wrong(size, 0.5);
    EXPECT_EQ(VerifyObfuscation(g, wrong, options).status().code(),
              StatusCode::kInvalidArgument)
        << size;
  }
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    std::vector<double> q = p;
    q[5] = bad;
    const Result<ObfuscationCertificate> cert =
        VerifyObfuscation(g, q, options);
    ASSERT_EQ(cert.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(cert.status().message().find("edge 5"), std::string::npos)
        << cert.status().ToString();
  }
}

TEST(VerifyObfuscationTest, CertificateReportsTheWorkersGranted) {
  // The posterior sweep's blocks are 256 vertices, so a 9-vertex graph
  // runs on one worker whatever was asked; no request gets more workers
  // than the hardware has.
  ObfuscationOptions options;
  options.k = 8.0;
  options.threads = 8;
  const Result<ObfuscationCertificate> star =
      VerifyObfuscation(MakeStar9(), options);
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->threads, 1);

  Rng rng(7);
  const UncertainGraph g =
      graph::RandomGraph({.nodes = 20000, .avg_degree = 8.0}, rng).value();
  options.threads = 64;
  options.keep_per_vertex = false;
  const Result<ObfuscationCertificate> wide = VerifyObfuscation(g, options);
  ASSERT_TRUE(wide.ok());
  EXPECT_GE(wide->threads, 1);
  EXPECT_LE(wide->threads,
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
}

}  // namespace
}  // namespace chameleon::privacy
