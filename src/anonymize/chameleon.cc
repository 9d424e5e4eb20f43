#include "chameleon/anonymize/chameleon.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <utility>

#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/rep_an.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::anonymize {
namespace {

/// Per-attempt stream derived from (seed, level, attempt) with mixing
/// constants distinct from the relevance estimator's per-world streams.
std::uint64_t AttemptSeed(std::uint64_t seed, std::size_t level,
                          std::size_t attempt) {
  std::uint64_t state = seed ^ (0x94d049bb133111ebull * (level + 1)) ^
                        (0xd6e8feb86659fd93ull * (attempt + 1));
  return SplitMix64(state);
}

/// Every range check is written so that NaN fails it, as the verifier's
/// are, and every range without an upper bound also demands a finite
/// value: NaN or ±inf must not reach the σ search or the size_t casts.
Status ValidateOptions(const graph::UncertainGraph& graph, Variant variant,
                       const ChameleonOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("graph has no vertices");
  }
  if (!(options.k > 1.0 && std::isfinite(options.k))) {
    return Status::InvalidArgument(
        StrFormat("k = %g must be finite and > 1", options.k));
  }
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon = %g must be in [0, 1]", options.epsilon));
  }
  if (options.trials == 0) {
    return Status::InvalidArgument("trials must be positive");
  }
  if (!(options.candidate_fraction > 0.0 &&
        options.candidate_fraction <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("candidate_fraction = %g must be in (0, 1]",
                  options.candidate_fraction));
  }
  if (!(options.white_noise >= 0.0 && options.white_noise <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "white_noise = %g must be in [0, 1]", options.white_noise));
  }
  if (!(options.sigma_init > 0.0 && std::isfinite(options.sigma_init))) {
    return Status::InvalidArgument(StrFormat(
        "sigma_init = %g must be finite and > 0", options.sigma_init));
  }
  if (!(options.sigma_max >= options.sigma_init &&
        std::isfinite(options.sigma_max))) {
    return Status::InvalidArgument(
        StrFormat("sigma_max = %g must be finite and >= sigma_init = %g",
                  options.sigma_max, options.sigma_init));
  }
  if (!(options.relevance_max_rel_err >= 0.0 &&
        std::isfinite(options.relevance_max_rel_err))) {
    return Status::InvalidArgument(
        StrFormat("relevance_max_rel_err = %g must be finite and >= 0",
                  options.relevance_max_rel_err));
  }
  const bool uses_relevance =
      variant == Variant::kRSME || variant == Variant::kRS;
  if (uses_relevance && options.relevance_worlds == 0) {
    return Status::InvalidArgument(
        "relevance_worlds must be positive for RSME/RS");
  }
  return Status::OK();
}

void EmitAttemptRecord(Variant variant, std::string_view phase,
                       std::size_t level, std::size_t attempt, double sigma,
                       const GenObfAttempt& result) {
  if (!obs::Enabled()) return;
  obs::RecordSink* sink = obs::GlobalSink();
  if (sink == nullptr) return;
  const auto& cert = result.certificate;
  sink->Write(obs::Record("anonymize_attempt")
                  .Str("method", VariantName(variant))
                  .Str("phase", phase)
                  .Int("level", level)
                  .Int("attempt", attempt)
                  .Num("sigma", sigma)
                  .Bool("success", cert.obfuscated)
                  .Num("eps_hat", cert.epsilon_hat)
                  .Int("not_obfuscated", cert.not_obfuscated)
                  .Int("vertices", cert.vertices)
                  .Int("perturbed_edges", result.perturbed_edges)
                  .Int("excluded", result.excluded_vertices)
                  .Num("wall_ms", result.wall_ms)
                  .Finish());
}

void EmitSigmaSearchRecord(Variant variant, std::string_view phase,
                           std::size_t level, double sigma, double lo,
                           double hi, bool success, double best_eps_hat,
                           std::size_t attempts, double best_sigma) {
  if (!obs::Enabled()) return;
  obs::RecordSink* sink = obs::GlobalSink();
  if (sink == nullptr) return;
  sink->Write(obs::Record("sigma_search")
                  .Str("method", VariantName(variant))
                  .Str("phase", phase)
                  .Int("level", level)
                  .Num("sigma", sigma)
                  .Num("lo", lo)
                  .Num("hi", hi)
                  .Bool("success", success)
                  .Num("eps_hat", best_eps_hat)
                  .Int("attempts", attempts)
                  .Num("best_sigma", best_sigma)
                  .Finish());
}

}  // namespace

std::string_view VariantName(Variant variant) {
  switch (variant) {
    case Variant::kRSME:
      return "RSME";
    case Variant::kME:
      return "ME";
    case Variant::kRS:
      return "RS";
    case Variant::kRepAn:
      return "Rep-An";
  }
  return "unknown";
}

Result<Variant> ParseVariant(std::string_view text) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "rsme") return Variant::kRSME;
  if (lower == "me") return Variant::kME;
  if (lower == "rs") return Variant::kRS;
  if (lower == "rep-an" || lower == "repan" || lower == "rep_an") {
    return Variant::kRepAn;
  }
  return Status::InvalidArgument(
      StrFormat("unknown variant '%s' (want rsme|me|rs|rep-an)",
                std::string(text).c_str()));
}

Result<AnonymizeResult> Anonymize(const graph::UncertainGraph& graph,
                                  Variant variant,
                                  const ChameleonOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(graph, variant, options));
  if (variant == Variant::kRepAn) {
    RepAnOptions rep_options;
    rep_options.driver = options;
    return RepAnAnonymize(graph, rep_options);
  }
  CHOBS_SPAN(span, "anonymize/driver");
  WallTimer timer;

  AnonymizeResult result;
  result.variant = variant;

  // Degree-property uniqueness U^v: the exclusion scores and half of Q^e.
  privacy::UniquenessOptions uniq_options;
  uniq_options.bandwidth = options.uniqueness_bandwidth;
  uniq_options.threads = options.threads;
  Result<privacy::UniquenessScores> uniqueness =
      privacy::ComputeUniqueness(graph, uniq_options);
  if (!uniqueness.ok()) return uniqueness.status();

  // Reliability relevance ERR^e, for the variants that select by it.
  std::vector<double> relevance_err;
  if (variant == Variant::kRSME || variant == Variant::kRS) {
    RelevanceOptions rel_options;
    rel_options.worlds = options.relevance_worlds;
    rel_options.seed = options.seed;
    rel_options.threads = options.threads;
    rel_options.max_rel_err = options.relevance_max_rel_err;
    rel_options.heartbeat = options.heartbeat;
    Result<EdgeRelevance> relevance = EstimateRelevance(graph, rel_options);
    if (!relevance.ok()) return relevance.status();
    relevance_err = std::move(relevance->err);
    result.relevance_worlds = relevance->worlds;
    result.relevance_wall_ms = relevance->wall_ms;
  }

  Result<std::vector<double>> priorities =
      ComputeEdgePriorities(graph, uniqueness->scores, relevance_err);
  if (!priorities.ok()) return priorities.status();

  GenObfOptions gen_options;
  gen_options.k = options.k;
  gen_options.epsilon = options.epsilon;
  gen_options.candidate_fraction = options.candidate_fraction;
  gen_options.white_noise = options.white_noise;
  gen_options.noise = variant == Variant::kRS ? NoiseModel::kAdditive
                                              : NoiseModel::kMaxEntropy;
  gen_options.adversary = options.adversary;
  gen_options.threads = options.threads;
  // Exclusion set and eligible edges: the same for every attempt.
  const Result<GenObfPlan> plan =
      PlanGenObf(graph, uniqueness->scores, gen_options);
  if (!plan.ok()) return plan.status();

  // Attempts write p̃ into one scratch; the best one's p̃ is set aside
  // with Keep() and becomes the one graph this search builds.
  GenObfScratch scratch;
  std::optional<GenObfAttempt> best;
  std::optional<GenObfAttempt> last_failed;
  double lo = 0.0;  // highest σ known to fail (0 = none tried below hi)
  double hi = 0.0;  // smallest σ known to succeed (0 = none yet)
  std::size_t level = 0;
  Status level_error = Status::OK();

  // Runs t attempts at one σ level; returns true when one succeeded
  // (stored into `best`). Emits per-attempt and per-level records.
  auto try_level = [&](double sigma, std::string_view phase) -> bool {
    double best_eps_hat = 2.0;
    std::size_t attempts_here = 0;
    bool success = false;
    for (std::size_t a = 0; a < options.trials; ++a) {
      Rng rng(AttemptSeed(options.seed, level, a));
      Result<GenObfAttempt> attempt =
          GenObf(graph, *plan, *priorities, sigma, gen_options, rng, scratch);
      if (!attempt.ok()) {
        level_error = attempt.status();
        return false;
      }
      ++result.attempts;
      ++attempts_here;
      const bool ok = attempt->certificate.obfuscated;
      best_eps_hat = std::min(best_eps_hat, attempt->certificate.epsilon_hat);
      result.trace.push_back(SigmaTraceEntry{
          sigma, level, a, std::string(phase), ok,
          attempt->certificate.epsilon_hat, attempt->wall_ms});
      EmitAttemptRecord(variant, phase, level, a, sigma, *attempt);
      if (ok) {
        best = std::move(*attempt);
        scratch.Keep();
        success = true;
        break;
      }
      last_failed = std::move(*attempt);
    }
    if (success) hi = sigma;
    EmitSigmaSearchRecord(variant, phase, level, sigma, lo, hi, success,
                          best_eps_hat, attempts_here, hi);
    ++level;
    return success;
  };

  // Expansion: double σ from sigma_init until a level succeeds, with the
  // final level clamped to sigma_max so the cap is actually tried.
  bool found = false;
  for (double sigma = options.sigma_init;;) {
    if (try_level(sigma, "expand")) {
      found = true;
      break;
    }
    if (!level_error.ok()) return level_error;
    lo = sigma;
    if (sigma >= options.sigma_max) break;
    sigma = std::min(sigma * 2.0, options.sigma_max);
  }

  // Refinement: bisect (lo, hi] toward the smallest successful σ,
  // keeping the p̃ of the best (lowest-σ) success.
  if (found) {
    for (std::size_t i = 0; i < options.refine_iters; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (!(mid > lo && mid < hi)) break;  // bracket exhausted
      if (!try_level(mid, "refine")) {
        if (!level_error.ok()) return level_error;
        lo = mid;
      }
    }
  }

  result.feasible = found;
  if (found) {
    Result<graph::UncertainGraph> published =
        graph.WithProbabilities(scratch.TakeKept());
    if (!published.ok()) return published.status();
    result.sigma = hi;
    result.published = std::move(*published);
    result.certificate = std::move(best->certificate);
    result.perturbed_edges = best->perturbed_edges;
    result.excluded_vertices = best->excluded_vertices;
  } else {
    // Publish nothing new: callers get the input back plus the evidence
    // of why the search failed. The search's buffers go first, so the
    // copy does not add to them.
    scratch = GenObfScratch();
    result.published = graph;
    if (last_failed.has_value()) {
      result.certificate = std::move(last_failed->certificate);
      result.perturbed_edges = last_failed->perturbed_edges;
      result.excluded_vertices = last_failed->excluded_vertices;
    }
  }
  result.wall_ms = timer.ElapsedMillis();
  EmitSigmaSearchRecord(variant, "final", level, result.sigma, lo, hi, found,
                        result.certificate.epsilon_hat, result.attempts,
                        result.sigma);
  span.AddCount("levels", level);
  span.AddCount("attempts", result.attempts);
  return result;
}

}  // namespace chameleon::anonymize
