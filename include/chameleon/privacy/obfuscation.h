#ifndef CHAMELEON_PRIVACY_OBFUSCATION_H_
#define CHAMELEON_PRIVACY_OBFUSCATION_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/util/common.h"
#include "chameleon/util/status.h"

/// \file obfuscation.h
/// The (k,ε)-obfuscation verifier (Boldi et al., VLDB'12; the paper's
/// privacy model). An adversary knows the degree property value ω of a
/// target vertex and, given the published uncertain graph, forms the
/// posterior over candidate vertices
///   Y_ω(u) = X_u(ω) / Σ_w X_w(ω),
/// where X_u(ω) = P[deg u = ω] is the Poisson-binomial degree PMF of u.
/// Vertex v is k-obfuscated iff H(Y_{P(v)}) ≥ log₂ k; the graph is
/// (k,ε)-obfuscated iff at most ε·|V| vertices are not k-obfuscated.
/// The verifier reports per-vertex entropies plus the realized
/// ε̂ = (#not obfuscated) / |V| — Chameleon's search loop accepts a
/// candidate exactly when ε̂ ≤ ε.
///
/// Posterior entropies are computed without materializing any posterior:
/// H(Y_ω) = log₂ S(ω) − T(ω)/S(ω) with S(ω) = Σ_u X_u(ω) and
/// T(ω) = Σ_u X_u(ω)·log₂ X_u(ω), both accumulated vertex-major in one
/// parallel sweep over the PMFs (O(Σ_v deg v) after the PMF build), and
/// only over the adversary-value range [min ω, max ω]: the
/// certificate reads no other entry. Per-block partials are reduced in
/// fixed block order, so the result is bit-identical across worker
/// counts.

namespace chameleon::privacy {

/// How the adversary's knowledge value P(v) is derived from the graph
/// under test (DESIGN.md §4's design decision).
enum class AdversaryModel {
  /// P(v) = round(E[deg v]) — the uncertain-original convention.
  kRoundedExpectedDegree,
  /// P(v) = structural degree (incident edge count) — Boldi et al.'s
  /// deterministic special case when every p ∈ {0, 1}.
  kStructuralDegree,
};

std::string_view AdversaryModelName(AdversaryModel model);

struct ObfuscationOptions {
  /// Privacy level: required posterior entropy is log₂ k. Must be > 1.
  double k = 100.0;
  /// Tolerated fraction of non-k-obfuscated vertices, in [0, 1].
  double epsilon = 1e-4;
  AdversaryModel adversary = AdversaryModel::kRoundedExpectedDegree;
  /// Worker count (< 1 = hardware concurrency).
  int threads = 0;
  /// Keep the per-vertex rows in the certificate (the tool's CSV); flip
  /// off inside a search loop that only needs the verdict.
  bool keep_per_vertex = true;
};

/// One vertex's row of the certificate.
struct VertexObfuscation {
  NodeId vertex = 0;
  /// Adversary knowledge value P(v).
  std::size_t omega = 0;
  /// H(Y_ω) in bits; 0 when no vertex can realize ω (empty posterior).
  double entropy_bits = 0.0;
  /// 2^entropy — the effective anonymity-set size for this vertex.
  double k_anonymity = 0.0;
  bool obfuscated = false;
};

/// Machine-checkable outcome of one (k,ε)-obfuscation verification.
struct ObfuscationCertificate {
  double k = 0.0;
  double epsilon = 0.0;
  std::size_t vertices = 0;
  std::size_t not_obfuscated = 0;
  /// Realized tolerance ε̂ = not_obfuscated / vertices.
  double epsilon_hat = 0.0;
  /// The verdict: ε̂ ≤ ε.
  bool obfuscated = false;
  double min_entropy_bits = 0.0;
  double mean_entropy_bits = 0.0;
  /// Distinct adversary knowledge values across the graph.
  std::size_t distinct_omegas = 0;
  AdversaryModel adversary = AdversaryModel::kRoundedExpectedDegree;
  /// Workers the posterior sweep was granted: the requested count
  /// after ParallelForBlocks' clamps (block count, hardware
  /// concurrency, minimum grain), so a 9-vertex graph reports 1.
  int threads = 1;
  double wall_ms = 0.0;
  /// Per-vertex rows (empty when options.keep_per_vertex is false).
  std::vector<VertexObfuscation> per_vertex;
};

/// Verifies `graph` against (k, ε). Never materializes the degree PMFs:
/// each block of vertices builds them one at a time in one scratch
/// buffer and folds each into the block's S/T partials as it is built,
/// so no per-vertex DegreeDistribution is allocated. A vertex's PMF is
/// built from its edges with 0 < p < 1 alone and folded at an offset of
/// its p = 1 edges, in O(Σ_v d_unc(v)²) for d_unc(v) such edges at v.
/// The certificate is bit-identical to BuildDegreeDistributions + the
/// dists overload below.
/// Emits `privacy/obf_check` trace spans, counters, and one
/// `privacy_check` JSONL record when observability is live.
Result<ObfuscationCertificate> VerifyObfuscation(
    const graph::UncertainGraph& graph, const ObfuscationOptions& options);

/// Verifies `graph`'s topology with `probabilities[e]` as edge e's
/// probability in place of the graph's own: the check a GenObf attempt
/// runs on its p̃ without building a graph. Each vertex's expected degree
/// is summed over its adjacency in edge-id order, in parallel, so the
/// certificate equals the one-graph overload's on
/// `graph.WithProbabilities(probabilities)` bit for bit.
/// InvalidArgument unless there is one probability per edge, each in
/// [0, 1] (NaN is rejected).
Result<ObfuscationCertificate> VerifyObfuscation(
    const graph::UncertainGraph& graph, std::span<const double> probabilities,
    const ObfuscationOptions& options);

/// Same, reusing caller-held degree distributions (`dists[v]` must be
/// vertex v's distribution); the sweep alone is O(Σ deg). Kept for
/// bench/e2e's traced pass, which holds PMFs, and as the tests' oracle.
Result<ObfuscationCertificate> VerifyObfuscation(
    const graph::UncertainGraph& graph,
    const std::vector<DegreeDistribution>& dists,
    const ObfuscationOptions& options);

/// Writes the `privacy_check` JSONL record for `certificate` to the
/// global obs sink (no-op when observability is disabled). Exposed so
/// tools that load a certificate can re-emit it.
void EmitPrivacyCheckRecord(const ObfuscationCertificate& certificate);

}  // namespace chameleon::privacy

#endif  // CHAMELEON_PRIVACY_OBFUSCATION_H_
