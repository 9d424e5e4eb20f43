#ifndef CHAMELEON_PRIVACY_UNIQUENESS_H_
#define CHAMELEON_PRIVACY_UNIQUENESS_H_

#include <cstddef>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/status.h"

/// \file uniqueness.h
/// Uniqueness scores U^v (paper Definition 4): the inverse kernel-density
/// commonness of a vertex's degree property among the population. A
/// vertex whose expected degree sits in a dense part of the degree
/// spectrum is common (hard to re-identify, low U); an outlier hub is
/// unique (easy to re-identify, high U) and needs more obfuscation
/// noise. Chameleon's GenObf excludes the ⌈ε/2·|V|⌉ highest-uniqueness
/// vertices and budgets per-edge noise by these scores.
///
/// Commonness of property value ω:
///   C(ω) = Σ_{u∈V} K_θ(ω − P(u)),   U(ω) = 1 / C(ω)
/// with P(u) = E[deg u] (the uncertain-graph degree property, per
/// DESIGN.md §4) and the paper's Gaussian kernel K_θ(x) = e^{−x²/2θ²},
/// unnormalized so K_θ(0) = 1 — every vertex contributes its own full
/// unit of commonness, giving U^v ∈ (0, 1].
///
/// Algorithm: a one-dimensional fast Gauss transform on sorted values
/// (Greengard & Strain), O(n log n) instead of the O(n²) pair sum. The
/// sorted values are cut into boxes of width θ, each starting at the
/// smallest value not yet covered (the first at the minimum), so a
/// member y of a box starting at `lo` has t = (y − lo)/θ − ½ ∈ [−½, ½].
/// A target x sums the boxes within reach of it, in box order:
///
///   - Box of ≥ P members: with s = (x − lo)/θ − ½,
///       Σ_y e^{−(s−t)²/2} = e^{−s²/2} · Σ_{k<P} M_k s^k,
///       M_k = Σ_y e^{−t²/2} t^k / k!,
///     evaluated by Horner from the box's P precomputed moments.
///   - Box of fewer than P members: the kernel of each member, exactly
///     as the pair sum would.
///
/// Both constants come from error bounds; neither is an option:
///
///   - Reach c = √(2(ln n + 53 ln 2)) bandwidths. A box is skipped only
///     when all its members lie farther than cθ from x, so the neglected
///     mass is ≤ n·e^{−c²/2} = 2⁻⁵³, under half an ulp of C ≥ 1.
///   - Order P = 28. With |t| ≤ ½, the Taylor remainder of e^{st} costs
///     each source at most max_s e^{−s²/2+|s|/2}·(|s|/2)^P/P! ≈ 3e−23.
///
/// Against the pair sum (tests/privacy/uniqueness_oracle.h) the test
/// inputs agree to ≤ 1e−12 relative and give the same exclusion sets.
/// A score is a function of its value alone. Where at most half of the
/// n values are distinct (a representative's integer degrees), each of
/// the D distinct values is scored once and each vertex finds its
/// value's score by binary search among them, O(n log D) more; every
/// vertex is scored otherwise. Memory is O(n): a sorted copy of the
/// values, the D distinct values and their scores where they are used,
/// at most min(n, span/θ + 1) boxes and P moments per box of ≥ P
/// members, all freed before returning.

namespace chameleon::privacy {

struct UniquenessOptions {
  /// Kernel bandwidth θ. 0 selects Silverman's rule-of-thumb
  /// 1.06·σ̂·n^(−1/5) over the property values (θ = 1 when the spread
  /// is zero); the paper's §V-C "θ = σ_G" choice is bandwidth = σ̂,
  /// which callers opt into via SpreadBandwidth().
  double bandwidth = 0.0;
  /// Worker count for scoring the vertices against the shared box
  /// table (< 1 = hardware). Scores do not depend on it.
  int threads = 0;
};

/// Silverman's rule-of-thumb bandwidth for `values` (1.06·σ̂·n^(−1/5));
/// 1 when fewer than two values or zero spread. σ̂ is accumulated over
/// the sorted values, so the order of `values` cannot change a bit.
double SilvermanBandwidth(const std::vector<double>& values);

/// The paper's θ = σ_G: sample standard deviation of `values` (1 when
/// degenerate), for callers that want §V-C's bandwidth instead of
/// Silverman.
double SpreadBandwidth(const std::vector<double>& values);

/// Result of a uniqueness computation.
struct UniquenessScores {
  /// U^v per vertex, aligned with node ids.
  std::vector<double> scores;
  /// The bandwidth actually used (resolved from the options).
  double bandwidth = 0.0;
};

/// U^v over arbitrary property values (one per vertex). InvalidArgument
/// when `values` is empty, a value is NaN or ±inf, the bandwidth is
/// negative or not finite, or Silverman's rule yields no usable
/// bandwidth. Equal values get bitwise-equal scores, and permuting the
/// values permutes the scores bitwise.
Result<UniquenessScores> ComputeUniqueness(const std::vector<double>& values,
                                           const UniquenessOptions& options);

/// U^v over the expected-degree property of `graph`. Bit-identical
/// across worker counts: each distinct value is scored independently
/// against the same box table, in fixed box order. Emits a
/// `privacy/uniqueness` trace span.
Result<UniquenessScores> ComputeUniqueness(const graph::UncertainGraph& graph,
                                           const UniquenessOptions& options);

}  // namespace chameleon::privacy

#endif  // CHAMELEON_PRIVACY_UNIQUENESS_H_
