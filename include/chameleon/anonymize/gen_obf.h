#ifndef CHAMELEON_ANONYMIZE_GEN_OBF_H_
#define CHAMELEON_ANONYMIZE_GEN_OBF_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
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
/// give the same bits at any worker count.
///
/// An attempt works on a probability vector, not a graph. It writes p̃
/// into a GenObfScratch that the search reuses with its other buffers
/// (the keys, the histograms): every attempt rewrites every eligible
/// edge, candidate or not, so the edges no attempt may perturb keep p
/// from the scratch's first fill. Step 4 verifies p̃ on the input's
/// topology (privacy::VerifyObfuscation's probability overload). The
/// driver keeps its best attempt's p̃ with GenObfScratch::Keep, a buffer
/// swap, and builds one graph per search, the winner's. After the first
/// attempt of a search, an attempt allocates only small per-call
/// buffers, none of them O(|E|).
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
  /// The perturbed graph, from the one-shot GenObf only. An attempt on a
  /// GenObfScratch leaves it empty: its p̃ is the scratch's
  /// probabilities().
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
  /// Distinct for every plan PlanGenObf makes (0 for one it did not), so
  /// a GenObfScratch knows which plan its p̃ was filled under.
  std::uint64_t id = 0;
};

/// Builds the plan for `graph` from U^v per vertex (`uniqueness`), ε and
/// c. H is the ⌈ε/2·|V|⌉ highest scores, ties toward the lower id.
Result<GenObfPlan> PlanGenObf(const graph::UncertainGraph& graph,
                              const std::vector<double>& uniqueness,
                              const GenObfOptions& options);

class GenObfScratch;

/// Runs one attempt under `plan`, which must come from PlanGenObf on the
/// same graph and options, writing its p̃ into `scratch`; the result's
/// `published` stays empty. `priorities` holds Q^e per edge
/// (perturbation.h). Takes exactly one draw from `rng`, the attempt's
/// seed (none when an argument is rejected); pass a per-attempt stream
/// for a reproducible multi-attempt search.
Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const GenObfPlan& plan,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng, GenObfScratch& scratch);

/// One attempt with its own plan and scratch: PlanGenObf, the attempt
/// above, then `published` = graph.WithProbabilities(p̃).
Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const std::vector<double>& uniqueness,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng);

/// The buffers a σ search reuses across its attempts: two p̃ vectors (the
/// latest attempt's and the kept one), the selection keys and
/// histograms, and the priority partials. An attempt first fills the
/// latest vector with the graph's p unless it was last filled under the
/// same plan (by GenObfPlan::id) and graph (by its edge storage). Not
/// thread-safe: one search, one scratch.
class GenObfScratch {
 public:
  /// p̃ per edge of the latest attempt run on this scratch; empty before
  /// the first. A view from either accessor stays valid until the next
  /// attempt, Keep() or TakeKept() on this scratch.
  std::span<const double> probabilities() const { return latest_.p; }

  /// p̃ of the attempt that was latest at the last Keep().
  std::span<const double> kept() const { return kept_.p; }

  /// Sets the latest attempt's p̃ aside by swapping the two vectors; the
  /// next attempt writes into the one kept before. The first Keep()
  /// gives that vector room for the kept one's size, so no attempt
  /// allocates it.
  void Keep() {
    std::swap(latest_, kept_);
    latest_.p.reserve(kept_.p.size());
  }

  /// Hands out the kept p̃ and frees every other buffer, leaving this
  /// scratch as a fresh one: its next attempt fills p̃ from the graph.
  /// A search calls it once it has its winner, before it builds the
  /// published graph, so the build does not add to the search's buffers.
  std::vector<double> TakeKept() {
    std::vector<double> kept = std::move(kept_.p);
    *this = GenObfScratch();
    return kept;
  }

 private:
  friend Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                                      const GenObfPlan& plan,
                                      const std::vector<double>& priorities,
                                      double sigma,
                                      const GenObfOptions& options, Rng& rng,
                                      GenObfScratch& scratch);

  /// A p̃ vector and the plan and graph it was filled under: its edges
  /// that plan leaves alone hold that graph's p.
  struct Probabilities {
    std::vector<double> p;
    std::uint64_t plan = 0;
    const graph::UncertainEdge* edges = nullptr;
  };

  Probabilities latest_;
  Probabilities kept_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<std::uint32_t>> counts_;
  std::vector<std::pair<std::uint64_t, std::size_t>> tied_;
  std::vector<double> partial_q_;
};

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_ANONYMIZE_GEN_OBF_H_
