#ifndef CHAMELEON_ANONYMIZE_CHAMELEON_H_
#define CHAMELEON_ANONYMIZE_CHAMELEON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/status.h"

/// \file chameleon.h
/// The Chameleon anonymization driver (paper Algorithm 1) and one entry
/// point, Anonymize(), over the Table II variants:
///
///   RSME    reliability-oriented selection (Q^e damped by ERR^e) +
///           max-entropy perturbation — the full scheme.
///   ME      max-entropy perturbation, selection by uniqueness only
///           (ablates the reliability axis).
///   RS      reliability-oriented selection, plain additive noise
///           (ablates the max-entropy axis).
///   Rep-An  Boldi et al.'s deterministic-graph obfuscation run on a
///           representative instance — the p ∈ {0,1} special case
///           (rep_an.h).
///
/// The driver searches for the smallest global noise level σ whose
/// GenObf attempt passes the (k,ε) check: an expansion phase doubles σ
/// from sigma_init until some level succeeds (t randomized attempts per
/// level, each from its own derived rng stream), then a bisection phase
/// shrinks the bracket for refine_iters rounds, keeping the published
/// graph of the smallest successful σ. Smaller σ = less noise = better
/// utility, so the bracket minimum is the published candidate.
///
/// Observability: `anonymize/driver` spans, one `anonymize_attempt`
/// JSONL record per GenObf attempt, one `sigma_search` record per σ
/// level plus a final summary record, and the relevance estimator's own
/// `relevance_progress` checkpoints.
///
/// Determinism: uniqueness, relevance, GenObf, and the verifier all use
/// fixed-block parallel reductions, and every stochastic choice draws
/// from a stream derived from (seed, level, attempt) — the result is a
/// pure function of (graph, variant, options), bit-identical across
/// worker counts.

namespace chameleon::anonymize {

enum class Variant {
  kRSME,
  kME,
  kRS,
  kRepAn,
};

/// Table II display name ("RSME", "ME", "RS", "Rep-An").
std::string_view VariantName(Variant variant);

/// Parses "rsme" / "me" / "rs" / "rep-an" (case-insensitive; "repan"
/// also accepted). InvalidArgument otherwise.
Result<Variant> ParseVariant(std::string_view text);

struct ChameleonOptions {
  /// Privacy target: (k, ε)-obfuscation.
  double k = 100.0;
  double epsilon = 1e-4;
  /// Randomized GenObf attempts t per σ level.
  std::size_t trials = 3;
  /// Worlds N for the reused-sampling relevance estimator.
  std::size_t relevance_worlds = 200;
  /// Early-stop rule forwarded to the relevance estimator (0 = off).
  double relevance_max_rel_err = 0.0;
  /// Candidate-set fraction c (|EC| = ⌈c|E|⌉).
  double candidate_fraction = 0.3;
  /// Uniform escape-draw probability q per candidate.
  double white_noise = 0.01;
  /// σ search bracket: expansion starts at sigma_init and doubles up to
  /// sigma_max; refine_iters bisection rounds follow the first success.
  double sigma_init = 0.05;
  double sigma_max = 1.0;
  std::size_t refine_iters = 5;
  privacy::AdversaryModel adversary =
      privacy::AdversaryModel::kRoundedExpectedDegree;
  /// Kernel bandwidth θ for uniqueness (0 = Silverman's rule).
  double uniqueness_bandwidth = 0.0;
  int threads = 0;
  std::uint64_t seed = 2018;
  bool heartbeat = true;
};

/// One GenObf attempt in the σ-search trace.
struct SigmaTraceEntry {
  double sigma = 0.0;
  /// σ level index (0-based, across both phases).
  std::size_t level = 0;
  /// Attempt index within the level.
  std::size_t attempt = 0;
  /// "expand" or "refine".
  std::string phase;
  bool success = false;
  double epsilon_hat = 0.0;
  double wall_ms = 0.0;
};

struct AnonymizeResult {
  Variant variant = Variant::kRSME;
  /// False when no σ ≤ sigma_max passed the (k,ε) check; `published`
  /// then holds the input graph unchanged and `certificate` the last
  /// failing attempt's certificate.
  bool feasible = false;
  graph::UncertainGraph published;
  /// Smallest successful σ (the published graph's noise level).
  double sigma = 0.0;
  privacy::ObfuscationCertificate certificate;
  std::vector<SigmaTraceEntry> trace;
  std::size_t attempts = 0;
  std::size_t perturbed_edges = 0;
  std::size_t excluded_vertices = 0;
  /// Relevance-estimator diagnostics (0 worlds for ME / Rep-An).
  std::size_t relevance_worlds = 0;
  double relevance_wall_ms = 0.0;
  double wall_ms = 0.0;
};

/// Runs one Table II variant. kRSME / kME / kRS go through the
/// Algorithm-1 driver; kRepAn runs RepAnAnonymize (rep_an.h) with the
/// default representative extraction. Infeasibility is reported through
/// AnonymizeResult::feasible, not a Status — errors are reserved for
/// invalid options or graph failures.
Result<AnonymizeResult> Anonymize(const graph::UncertainGraph& graph,
                                  Variant variant,
                                  const ChameleonOptions& options);

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_ANONYMIZE_CHAMELEON_H_
