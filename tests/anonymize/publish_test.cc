// A published edge list must carry the doubles the search certified:
// reading the file back and verifying it again gives the search's own
// certificate bit for bit, for every Table II variant.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"

namespace chameleon::anonymize {
namespace {

std::uint64_t Bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// ER G(n, m) on 2,000 nodes and 8,000 edges, p uniform in [0.2, 0.9]:
/// the CI anonymize smoke's graph shape. Not every such graph admits every
/// variant at these targets (from seed 2018 the RS search ends
/// infeasible, and nothing is published); from seed 3 all four publish.
graph::UncertainGraph MakeEr2k() {
  constexpr NodeId kNodes = 2000;
  constexpr std::size_t kEdges = 8000;
  Rng rng(3);
  std::unordered_set<std::uint64_t> seen;
  graph::UncertainGraphBuilder builder(kNodes);
  while (seen.size() < kEdges) {
    auto u = static_cast<NodeId>(rng.UniformInt(kNodes));
    auto v = static_cast<NodeId>(rng.UniformInt(kNodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((std::uint64_t{u} << 32) | v).second) continue;
    EXPECT_TRUE(builder.AddEdge(u, v, rng.Uniform(0.2, 0.9)).ok());
  }
  Result<graph::UncertainGraph> graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return *std::move(graph);
}

void CheckPublishedFileKeepsTheCertificate(Variant variant, double k,
                                           double epsilon) {
  static const graph::UncertainGraph input = MakeEr2k();
  ChameleonOptions options;
  options.k = k;
  options.epsilon = epsilon;
  options.seed = 2018;
  options.threads = 2;
  options.heartbeat = false;
  const Result<AnonymizeResult> result = Anonymize(input, variant, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->feasible);

  const std::string path = testing::TempDir() + "/chameleon_publish_" +
                           std::string(VariantName(variant)) + ".edges";
  ASSERT_TRUE(graph::WriteEdgeList(result->published, path).ok());
  const Result<graph::UncertainGraph> reread = graph::ReadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();

  const graph::UncertainGraph& published = result->published;
  ASSERT_EQ(reread->num_nodes(), published.num_nodes());
  ASSERT_EQ(reread->num_edges(), published.num_edges());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < published.num_edges(); ++i) {
    const graph::UncertainEdge& a = reread->edges()[i];
    const graph::UncertainEdge& b = published.edges()[i];
    if (a.u != b.u || a.v != b.v || Bits(a.p) != Bits(b.p)) ++differing;
  }
  EXPECT_EQ(differing, 0u) << "edges re-read differently";

  privacy::ObfuscationOptions verify;
  verify.k = k;
  verify.epsilon = epsilon;
  verify.adversary = variant == Variant::kRepAn
                         ? privacy::AdversaryModel::kStructuralDegree
                         : privacy::AdversaryModel::kRoundedExpectedDegree;
  verify.keep_per_vertex = false;
  const Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(*reread, verify);
  ASSERT_TRUE(certificate.ok()) << certificate.status().ToString();
  const privacy::ObfuscationCertificate& want = result->certificate;
  EXPECT_EQ(certificate->adversary, want.adversary);
  EXPECT_EQ(Bits(certificate->epsilon_hat), Bits(want.epsilon_hat));
  EXPECT_EQ(Bits(certificate->min_entropy_bits), Bits(want.min_entropy_bits))
      << StrFormat("%.17g from the file, %.17g certified",
                   certificate->min_entropy_bits, want.min_entropy_bits);
  EXPECT_EQ(Bits(certificate->mean_entropy_bits),
            Bits(want.mean_entropy_bits))
      << StrFormat("%.17g from the file, %.17g certified",
                   certificate->mean_entropy_bits, want.mean_entropy_bits);
  EXPECT_EQ(certificate->not_obfuscated, want.not_obfuscated);
  EXPECT_EQ(certificate->vertices, want.vertices);
  EXPECT_EQ(certificate->distinct_omegas, want.distinct_omegas);
  EXPECT_EQ(certificate->obfuscated, want.obfuscated);
}

TEST(PublishTest, RsmeFileKeepsTheCertificate) {
  CheckPublishedFileKeepsTheCertificate(Variant::kRSME, 500.0, 0.01);
}

TEST(PublishTest, MeFileKeepsTheCertificate) {
  CheckPublishedFileKeepsTheCertificate(Variant::kME, 500.0, 0.01);
}

TEST(PublishTest, RsFileKeepsTheCertificate) {
  CheckPublishedFileKeepsTheCertificate(Variant::kRS, 500.0, 0.01);
}

TEST(PublishTest, RepAnFileKeepsTheCertificate) {
  // Rep-An certifies under the structural-degree adversary.
  CheckPublishedFileKeepsTheCertificate(Variant::kRepAn, 100.0, 0.05);
}

}  // namespace
}  // namespace chameleon::anonymize
