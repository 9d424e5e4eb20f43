#include "chameleon/privacy/uniqueness.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "chameleon/obs/obs.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/string_util.h"

namespace chameleon::privacy {
namespace {

/// Targets per scheduling block; each target costs O(boxes in reach · P).
constexpr std::size_t kTargetBlock = 256;

/// Taylor order P of the Gaussian box expansion (see uniqueness.h).
constexpr std::size_t kOrder = 28;

/// Box::moments value of a box that is summed point by point.
constexpr std::size_t kDirect = static_cast<std::size_t>(-1);

/// A run of sorted values [begin, end) spanning less than one bandwidth:
/// every member y has t = (y − lo)/θ − ½ ∈ [−½, ½).
struct Box {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Offset of the box's kOrder moments in BoxTable::moments, or kDirect.
  std::size_t moments = kDirect;
};

struct BoxTable {
  std::vector<double> sorted;
  std::vector<Box> boxes;
  std::vector<double> moments;
};

/// Sample standard deviation accumulated in sorted order, so that
/// permuting the values cannot change a bit of it.
double SortedStddev(const std::vector<double>& sorted) {
  RunningStats stats;
  for (const double x : sorted) stats.Add(x);
  return stats.stddev();
}

double SortedSilverman(const std::vector<double>& sorted) {
  if (sorted.size() < 2) return 1.0;
  const double sigma = SortedStddev(sorted);
  if (sigma <= 0.0) return 1.0;
  return 1.06 * sigma * std::pow(static_cast<double>(sorted.size()), -0.2);
}

std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

/// Cuts sorted values into boxes of width θ: each box starts at the
/// smallest value not yet covered, beginning with the minimum. Boxes of
/// at least kOrder members get their moments M_k = Σ e^{−t²/2}·t^k/k!.
BoxTable BuildBoxes(std::vector<double> sorted, double bandwidth) {
  BoxTable table;
  table.sorted = std::move(sorted);
  const std::vector<double>& y = table.sorted;
  for (std::size_t begin = 0; begin < y.size();) {
    const double lo = y[begin];
    std::size_t end = begin + 1;
    while (end < y.size() && (y[end] - lo) / bandwidth < 1.0) ++end;
    Box box{lo, y[end - 1], begin, end, kDirect};
    if (end - begin >= kOrder) {
      box.moments = table.moments.size();
      table.moments.resize(box.moments + kOrder, 0.0);
      double* m = table.moments.data() + box.moments;
      for (std::size_t j = begin; j < end; ++j) {
        const double t = (y[j] - lo) / bandwidth - 0.5;
        double term = std::exp(-0.5 * t * t);
        for (std::size_t k = 0; k < kOrder; ++k) {
          m[k] += term;
          term *= t / static_cast<double>(k + 1);
        }
      }
    }
    table.boxes.push_back(box);
    begin = end;
  }
  return table;
}

/// C(x) over the boxes within `reach` bandwidths of x, in box order.
double Commonness(const BoxTable& table, double bandwidth, double reach,
                  double x) {
  const auto first = std::partition_point(
      table.boxes.begin(), table.boxes.end(),
      [&](const Box& box) { return (x - box.hi) / bandwidth > reach; });
  double commonness = 0.0;
  for (auto box = first;
       box != table.boxes.end() && (box->lo - x) / bandwidth <= reach;
       ++box) {
    if (box->moments == kDirect) {
      for (std::size_t j = box->begin; j < box->end; ++j) {
        const double z = (x - table.sorted[j]) / bandwidth;
        commonness += std::exp(-0.5 * z * z);
      }
      continue;
    }
    // Σ_j e^{−(s−t_j)²/2} = e^{−s²/2}·Σ_k M_k s^k, by Horner.
    const double s = (x - box->lo) / bandwidth - 0.5;
    const double* m = table.moments.data() + box->moments;
    double poly = m[kOrder - 1];
    for (std::size_t k = kOrder - 1; k-- > 0;) poly = poly * s + m[k];
    commonness += std::exp(-0.5 * s * s) * poly;
  }
  return commonness;
}

}  // namespace

double SilvermanBandwidth(const std::vector<double>& values) {
  return SortedSilverman(Sorted(values));
}

double SpreadBandwidth(const std::vector<double>& values) {
  if (values.size() < 2) return 1.0;
  const double sigma = SortedStddev(Sorted(values));
  return sigma > 0.0 ? sigma : 1.0;
}

Result<UniquenessScores> ComputeUniqueness(const std::vector<double>& values,
                                           const UniquenessOptions& options) {
  if (values.empty()) {
    return Status::InvalidArgument("uniqueness needs at least one vertex");
  }
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (!std::isfinite(values[v])) {
      return Status::InvalidArgument(StrFormat(
          "property value of vertex %zu is %g, not finite", v, values[v]));
    }
  }
  if (!(options.bandwidth >= 0.0) || !std::isfinite(options.bandwidth)) {
    return Status::InvalidArgument(StrFormat(
        "bandwidth %g must be finite and non-negative", options.bandwidth));
  }
  CHOBS_SPAN(span, "privacy/uniqueness");
  std::vector<double> sorted = Sorted(values);
  const double bandwidth = options.bandwidth > 0.0
                               ? options.bandwidth
                               : SortedSilverman(sorted);
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument(StrFormat(
        "Silverman bandwidth %g over these values is unusable", bandwidth));
  }

  const std::size_t n = values.size();
  // Past `reach` bandwidths a term is below 2⁻⁵³/n.
  const double reach = std::sqrt(
      2.0 * (std::log(static_cast<double>(n)) + 53.0 * std::log(2.0)));
  const BoxTable table = BuildBoxes(std::move(sorted), bandwidth);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || table.sorted[i] != table.sorted[i - 1]) ++distinct;
  }

  UniquenessScores result;
  result.bandwidth = bandwidth;
  result.scores.assign(n, 0.0);
  // Each value reads only the shared table, in fixed box order, so a
  // score is a function of its value alone: worker count and vertex
  // labels cannot change a bit, and neither can scoring a value once for
  // every vertex that has it.
  const auto score = [&](double x) {
    // The self term K(0) = 1 bounds commonness below, so U ≤ 1.
    return 1.0 / Commonness(table, bandwidth, reach, x);
  };
  if (2 * distinct > n) {
    ParallelForBlocks(
        n, kTargetBlock, options.threads,
        [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
          for (std::size_t v = begin; v < end; ++v) {
            result.scores[v] = score(values[v]);
          }
        });
  } else {
    // Runs of equal values are common (a representative's integer
    // degrees): each distinct value is scored once, and each vertex
    // finds its value's score by binary search among them. Where nearly
    // every value is distinct, as expected degrees are, the lookup
    // measured slower than scoring each vertex and its arrays raised
    // peak RSS (DESIGN.md §9). The half-way cut-off is not tuned.
    std::vector<double> keys;
    keys.reserve(distinct);
    for (const double x : table.sorted) {
      if (keys.empty() || x != keys.back()) keys.push_back(x);
    }
    std::vector<double> key_scores(distinct);
    ParallelForBlocks(
        distinct, kTargetBlock, options.threads,
        [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            key_scores[i] = score(keys[i]);
          }
        });
    ParallelForBlocks(
        n, kTargetBlock, options.threads,
        [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
          for (std::size_t v = begin; v < end; ++v) {
            const auto key =
                std::lower_bound(keys.begin(), keys.end(), values[v]);
            result.scores[v] = key_scores[static_cast<std::size_t>(
                key - keys.begin())];
          }
        });
  }
  span.AddCount("vertices", n);
  span.AddCount("distinct_values", distinct);
  span.AddCount("boxes", table.boxes.size());
  CHOBS_COUNT("privacy/uniqueness/scored", n);
  return result;
}

Result<UniquenessScores> ComputeUniqueness(const graph::UncertainGraph& graph,
                                           const UniquenessOptions& options) {
  return ComputeUniqueness(graph.expected_degrees(), options);
}

}  // namespace chameleon::privacy
