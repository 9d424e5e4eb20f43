#ifndef CHAMELEON_ANONYMIZE_GEN_OBF_H_
#define CHAMELEON_ANONYMIZE_GEN_OBF_H_

#include <cstddef>
#include <vector>

#include "chameleon/anonymize/perturbation.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/status.h"

/// \file gen_obf.h
/// One randomized obfuscation attempt at a fixed global noise level σ
/// (paper Algorithm 3, GenObf):
///
///   1. Exclude the ⌈ε/2·|V|⌉ highest-uniqueness vertices H — outliers
///      so re-identifiable that obfuscating them would demand graph-wide
///      noise. Half the ε budget is spent on them up front; their
///      incident edges are never perturbed.
///   2. Draw a candidate set EC of ⌈c·|E|⌉ eligible edges, weighted by
///      the priorities Q^e (Efraimidis–Spirakis exponential-key sampling
///      without replacement: the ⌈c·|E|⌉ smallest keys −ln(u_e)/Q^e,
///      ties toward the lower edge id).
///   3. Perturb each candidate with the variant's noise model at scale
///      σ(e) = σ·Q^e / mean(Q over EC) — budget proportional to Q^e,
///      normalized so the mean candidate scale is σ.
///   4. Verify the perturbed graph with the (k,ε)-obfuscation verifier
///      (privacy/obfuscation.h); the attempt succeeds iff ε̂ ≤ ε.
///
/// Step 1 and the eligible-edge list depend only on the graph, the
/// uniqueness scores and the options, so a σ search builds them once
/// (PlanGenObf) and every attempt pays only for steps 2–4.
///
/// Steps 2–3 are order-free. An attempt takes exactly one draw from the
/// `rng` it is passed, as its seed; edge e's key u_e and its noise stream
/// are pure functions of (that seed, e), on SplitMix64 streams of their
/// own. So the keys, the selection (a histogram of the keys' bit
/// patterns, then a search of the one bucket the last candidate sits
/// in), the candidates' priority sum (fixed-block partials merged in
/// block order) and the perturbation all run under ParallelForBlocks and
/// give the same bits at any worker count. The attempt's graph shares
/// the input's topology (UncertainGraph::WithProbabilities).
///
/// Edges with p = 1 whose relevance the reused-sampling estimator cannot
/// observe are still eligible: perturbing certain edges is exactly how
/// uncertainty is injected (and the Rep-An p ∈ {0,1} special case relies
/// on it).

namespace chameleon::anonymize {

struct GenObfOptions {
  /// Privacy parameters forwarded to the verifier.
  double k = 100.0;
  double epsilon = 1e-4;
  /// Candidate-set size as a fraction c of |E|.
  double candidate_fraction = 0.3;
  /// Probability q of the uniform escape draw per candidate.
  double white_noise = 0.01;
  NoiseModel noise = NoiseModel::kMaxEntropy;
  privacy::AdversaryModel adversary =
      privacy::AdversaryModel::kRoundedExpectedDegree;
  int threads = 0;
};

/// Outcome of one GenObf attempt.
struct GenObfAttempt {
  graph::UncertainGraph published;
  privacy::ObfuscationCertificate certificate;
  double sigma = 0.0;
  std::size_t perturbed_edges = 0;
  std::size_t excluded_vertices = 0;
  double wall_ms = 0.0;
};

/// What every attempt of one σ search shares: the exclusion set H and
/// the edges it leaves eligible.
struct GenObfPlan {
  /// Edges with neither endpoint in H, in edge order.
  std::vector<EdgeId> eligible;
  /// |H| = ⌈ε/2·|V|⌉.
  std::size_t excluded_vertices = 0;
  /// |EC| = min(⌈c·|E|⌉, |eligible|).
  std::size_t candidates = 0;
};

/// Builds the plan for `graph` from U^v per vertex (`uniqueness`), ε and
/// c. H is the ⌈ε/2·|V|⌉ highest scores, ties toward the lower id.
Result<GenObfPlan> PlanGenObf(const graph::UncertainGraph& graph,
                              const std::vector<double>& uniqueness,
                              const GenObfOptions& options);

/// Runs one attempt under `plan`, which must come from PlanGenObf on the
/// same graph and options. `priorities` holds Q^e per edge
/// (perturbation.h). Takes exactly one draw from `rng`, the attempt's
/// seed (none when an argument is rejected); pass a per-attempt stream
/// for a reproducible multi-attempt search.
Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const GenObfPlan& plan,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng);

/// One attempt with its own plan: PlanGenObf, then the attempt above.
Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const std::vector<double>& uniqueness,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng);

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_ANONYMIZE_GEN_OBF_H_
