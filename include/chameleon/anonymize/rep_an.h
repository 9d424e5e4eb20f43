#ifndef CHAMELEON_ANONYMIZE_REP_AN_H_
#define CHAMELEON_ANONYMIZE_REP_AN_H_

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file rep_an.h
/// The Rep-An baseline (paper Table II; Boldi et al., PAPERS.md
/// 1208.4145): collapse the uncertain graph to one representative
/// deterministic instance, then obfuscate that instance with the
/// deterministic special case of the Chameleon machinery — every input
/// probability is in {0, 1}, uniqueness and the adversary read
/// structural degrees, and the perturbation injects the uncertainty
/// that Boldi's method publishes. Reliability relevance is not part of
/// Boldi's scheme, so selection weighs uniqueness only (the ME column's
/// behavior) — which is also forced, since a p ∈ {0,1} graph gives the
/// reused-sampling estimator no absent-world samples for present edges.
///
/// Representative extraction: the m = round(Σ_e p(e)) highest-probability
/// edges (ties toward the earlier edge in canonical order), preserving
/// the expected edge count; or a fixed inclusion threshold on demand.

namespace chameleon::anonymize {

struct RepAnOptions {
  /// Driver configuration; adversary is overridden to structural degree
  /// and the relevance estimator is skipped regardless of its settings.
  ChameleonOptions driver;
  /// Inclusion threshold in [0, 1]; negative = expected-edge-count
  /// extraction (the default).
  double threshold = -1.0;
};

/// The representative instance: selected edges at p = 1, others dropped.
/// Expected-edge-count extraction selects its edges with nth_element, in
/// linear expected time. InvalidArgument when `threshold` is NaN or
/// above 1.
Result<graph::UncertainGraph> ExtractRepresentative(
    const graph::UncertainGraph& graph, double threshold);

/// Full Rep-An pipeline: extraction + deterministic obfuscation. The
/// result's variant is kRepAn and its certificate/trace come from the
/// driver run on the representative instance.
Result<AnonymizeResult> RepAnAnonymize(const graph::UncertainGraph& graph,
                                       const RepAnOptions& options);

}  // namespace chameleon::anonymize

#endif  // CHAMELEON_ANONYMIZE_REP_AN_H_
