#include "chameleon/privacy/obfuscation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"
#include "poisson_binomial.h"

namespace chameleon::privacy {
namespace {

/// Vertices per scheduling block in the posterior sweep. A block's
/// partial S/T arrays are as long as its longest PMF; 256 keeps the
/// block count (and so the partial-buffer memory) small while still
/// load-balancing hub-heavy blocks.
constexpr std::size_t kPosteriorBlock = 256;

/// Slack absorbing float noise in the entropy-vs-log2(k) comparison, so
/// an exactly-uniform posterior over k vertices counts as k-obfuscated.
constexpr double kEntropySlack = 1e-12;

Status ValidateOptions(const ObfuscationOptions& options) {
  if (!(options.k > 1.0 && std::isfinite(options.k))) {
    return Status::InvalidArgument(
        StrFormat("k = %g must be finite and greater than 1", options.k));
  }
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon = %g must be in [0, 1]", options.epsilon));
  }
  return Status::OK();
}

/// Adds the entries ω ∈ [lo, hi] of one PMF to a block's partials, which
/// hold ω at index ω − lo: S[ω] += x and T[ω] += x·log₂x for every
/// nonzero x. The PMF's `size` entries hold ω = offset, offset + 1, …;
/// every ω outside them has probability 0.
void FoldPmf(const double* pmf, std::size_t size, std::size_t offset,
             std::size_t lo, std::size_t hi, double* s, double* t) {
  const std::size_t end = std::min(offset + size, hi + 1);
  for (std::size_t w = std::max(lo, offset); w < end; ++w) {
    const double x = pmf[w - offset];
    if (x > 0.0) {
      s[w - lo] += x;
      t[w - lo] += x * std::log2(x);
    }
  }
}

/// Builds the PMFs of vertices [begin, end) one at a time in one scratch
/// buffer, `width` entries long (the block's longest PMF), and folds
/// each into the block's partials at once. Only a vertex's uncertain
/// edges, 0 < p̃ < 1, enter the recurrence: their probabilities
/// `probability(e)` are gathered, in adjacency order, into a local
/// buffer, and the PMF they give is folded at an offset equal to the
/// vertex's number of p̃ = 1 edges (poisson_binomial.h says why that is
/// the full recurrence's PMF bit for bit). A PMF that lies wholly
/// outside [lo, hi] has nothing to fold and is not built.
template <typename Probability>
void BuildAndFold(const graph::UncertainGraph& graph,
                  const Probability& probability, std::size_t begin,
                  std::size_t end, std::size_t width, std::size_t lo,
                  std::size_t hi, double* s, double* t) {
  std::vector<double> pmf(width);
  std::vector<double> probs(width - 1);
  for (std::size_t u = begin; u < end; ++u) {
    const auto neighbors = graph.Neighbors(static_cast<NodeId>(u));
    if (neighbors.size() < lo) continue;
    std::size_t certain = 0;
    std::size_t uncertain = 0;
    // Branches, not a branch-free compaction: where no edge is certain
    // they are always predicted, and there the compaction's chain of
    // data-dependent stores measured slower.
    for (const graph::AdjEntry& entry : neighbors) {
      const double p = probability(entry.edge);
      if (p >= 1.0) {
        ++certain;
      } else if (p > 0.0) {
        probs[uncertain++] = p;
      }
    }
    if (certain + uncertain < lo || certain > hi) continue;
    internal::BuildPmf(pmf.data(), probs.data(), uncertain);
    FoldPmf(pmf.data(), uncertain + 1, certain, lo, hi, s, t);
  }
}

/// The verifier behind every overload, on a non-empty graph with valid
/// options. `expected_degrees[v]` is E[deg v] under the probabilities
/// verified (read only by the expected-degree adversary); `pmf_size(v)`
/// is the length of v's degree PMF; and
/// `fold(begin, end, width, lo, hi, s, t)` adds entries [lo, hi] of the
/// PMFs of vertices [begin, end), in vertex order, into one block's
/// partials, which hold ω at index ω − lo. `width` is the block's
/// longest PMF, and hi < width.
template <typename PmfSize, typename Fold>
ObfuscationCertificate Certify(const graph::UncertainGraph& graph,
                               std::span<const double> expected_degrees,
                               const ObfuscationOptions& options,
                               const PmfSize& pmf_size, const Fold& fold) {
  const std::size_t n = graph.num_nodes();
  CHOBS_SPAN(span, "privacy/obf_check");
  WallTimer timer;
  ObfuscationCertificate cert;
  cert.k = options.k;
  cert.epsilon = options.epsilon;
  cert.vertices = n;
  cert.adversary = options.adversary;
  cert.threads =
      static_cast<int>(ParallelWorkers(n, kPosteriorBlock, options.threads));

  // Adversary knowledge values and their range [lo, hi]: the certificate
  // reads S and T at these ω alone.
  std::vector<std::size_t> omegas(n);
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;
  for (NodeId v = 0; v < n; ++v) {
    omegas[v] =
        options.adversary == AdversaryModel::kRoundedExpectedDegree
            ? static_cast<std::size_t>(std::llround(expected_degrees[v]))
            : graph.Neighbors(v).size();
    lo = std::min(lo, omegas[v]);
    hi = std::max(hi, omegas[v]);
  }

  // One vertex-major sweep accumulates, for every degree value ω in
  // [lo, hi],
  //   S(ω) = Σ_u X_u(ω)   and   T(ω) = Σ_u X_u(ω)·log₂ X_u(ω);
  // the posterior entropy is then H(Y_ω) = log₂ S − T/S without ever
  // materializing a posterior. Per-block partials merged in block order
  // keep the sums worker-count independent. A block's partials stop at
  // its longest PMF: every term past it would be +0.0, and x + 0.0 == x
  // bit for bit unless x is −0.0, which no sum here can be (S adds
  // positive terms; T adds x·log₂x, +0.0 at x = 1 and negative below).
  // So the merge adds only that prefix and the sums equal those of
  // globally wide partials. One hub then costs one wide block, not n/256
  // of them. Each sum at ω is its own chain of adds, so leaving out the
  // ω outside [lo, hi] changes none of the sums the certificate reads.
  const std::size_t width = hi - lo + 1;
  const std::size_t blocks = NumBlocks(n, kPosteriorBlock);
  std::vector<std::vector<double>> partial_s(blocks);
  std::vector<std::vector<double>> partial_t(blocks);
  {
    CHOBS_SPAN(sweep_span, "posterior_sweep");
    ParallelForBlocks(
        n, kPosteriorBlock, options.threads,
        [&](std::size_t block, std::size_t begin, std::size_t end) {
          std::size_t block_width = 0;
          for (std::size_t u = begin; u < end; ++u) {
            block_width =
                std::max(block_width, pmf_size(static_cast<NodeId>(u)));
          }
          if (block_width <= lo) return;  // no PMF reaches the range
          const std::size_t block_hi = std::min(hi, block_width - 1);
          std::vector<double>& s = partial_s[block];
          std::vector<double>& t = partial_t[block];
          s.assign(block_hi - lo + 1, 0.0);
          t.assign(block_hi - lo + 1, 0.0);
          fold(begin, end, block_width, lo, block_hi, s.data(), t.data());
        });
    sweep_span.AddCount("vertices", n);
  }
  std::vector<double> sum(width, 0.0);
  std::vector<double> sum_xlogx(width, 0.0);
  for (std::size_t block = 0; block < blocks; ++block) {
    for (std::size_t w = 0; w < partial_s[block].size(); ++w) {
      sum[w] += partial_s[block][w];
      sum_xlogx[w] += partial_t[block][w];
    }
  }

  std::vector<double> entropy(width, 0.0);
  std::vector<bool> value_seen(width, false);
  for (std::size_t w = 0; w < width; ++w) {
    if (sum[w] > 0.0) {
      entropy[w] = std::max(0.0, std::log2(sum[w]) - sum_xlogx[w] / sum[w]);
    }
  }

  const double required_bits = std::log2(options.k);
  double entropy_sum = 0.0;
  double entropy_min = std::numeric_limits<double>::infinity();
  if (options.keep_per_vertex) cert.per_vertex.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t omega = omegas[v];
    const double h = entropy[omega - lo];
    const bool obfuscated = h + kEntropySlack >= required_bits;
    if (!obfuscated) ++cert.not_obfuscated;
    entropy_sum += h;
    entropy_min = std::min(entropy_min, h);
    value_seen[omega - lo] = true;
    if (options.keep_per_vertex) {
      cert.per_vertex.push_back(VertexObfuscation{
          .vertex = v,
          .omega = omega,
          .entropy_bits = h,
          .k_anonymity = std::exp2(h),
          .obfuscated = obfuscated,
      });
    }
  }
  for (std::size_t w = 0; w < width; ++w) {
    if (value_seen[w]) ++cert.distinct_omegas;
  }
  cert.epsilon_hat =
      static_cast<double>(cert.not_obfuscated) / static_cast<double>(n);
  cert.obfuscated = cert.epsilon_hat <= options.epsilon;
  cert.min_entropy_bits = entropy_min;
  cert.mean_entropy_bits = entropy_sum / static_cast<double>(n);
  cert.wall_ms = static_cast<double>(timer.ElapsedNanos()) * 1e-6;

  span.AddCount("vertices", n);
  span.AddCount("not_obfuscated", cert.not_obfuscated);
  CHOBS_COUNT("privacy/obf_check/checks", 1);
  CHOBS_COUNT("privacy/obf_check/vertices", n);
  CHOBS_COUNT("privacy/obf_check/not_obfuscated", cert.not_obfuscated);
  EmitPrivacyCheckRecord(cert);
  return cert;
}

}  // namespace

std::string_view AdversaryModelName(AdversaryModel model) {
  switch (model) {
    case AdversaryModel::kRoundedExpectedDegree:
      return "expected_degree";
    case AdversaryModel::kStructuralDegree:
      return "structural_degree";
  }
  return "unknown";
}

Result<ObfuscationCertificate> VerifyObfuscation(
    const graph::UncertainGraph& graph, const ObfuscationOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot verify an empty graph");
  }
  // Each block builds its vertices' PMFs one at a time in one scratch
  // buffer, with DegreeDistribution's recurrence over its uncertain edges,
  // and folds each into the block's partials as soon as it is built, so no
  // per-vertex PMF is kept and the sums equal those of the dists overload
  // bit for bit.
  return Certify(
      graph, graph.expected_degrees(), options,
      [&](NodeId v) { return graph.Neighbors(v).size() + 1; },
      [&](std::size_t begin, std::size_t end, std::size_t width,
          std::size_t lo, std::size_t hi, double* s, double* t) {
        BuildAndFold(
            graph, [&](EdgeId e) { return graph.edge(e).p; }, begin, end,
            width, lo, hi, s, t);
      });
}

Result<ObfuscationCertificate> VerifyObfuscation(
    const graph::UncertainGraph& graph, std::span<const double> probabilities,
    const ObfuscationOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  const std::size_t n = graph.num_nodes();
  if (n == 0) {
    return Status::InvalidArgument("cannot verify an empty graph");
  }
  if (probabilities.size() != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("%zu probabilities for %zu edges", probabilities.size(),
                  graph.num_edges()));
  }
  for (std::size_t e = 0; e < probabilities.size(); ++e) {
    if (!(probabilities[e] >= 0.0 && probabilities[e] <= 1.0)) {
      return Status::InvalidArgument(
          StrFormat("probability %g of edge %zu outside [0, 1]",
                    probabilities[e], e));
    }
  }
  // E[deg v] summed over v's adjacency, which lists v's edges in edge-id
  // order: the order, and so the bits, of UncertainGraphBuilder's and
  // WithProbabilities' edge-order sums.
  std::vector<double> expected_degrees;
  if (options.adversary == AdversaryModel::kRoundedExpectedDegree) {
    expected_degrees.resize(n);
    ParallelForBlocks(
        n, kPosteriorBlock, options.threads,
        [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
          for (std::size_t v = begin; v < end; ++v) {
            double sum = 0.0;
            for (const graph::AdjEntry& entry :
                 graph.Neighbors(static_cast<NodeId>(v))) {
              sum += probabilities[entry.edge];
            }
            expected_degrees[v] = sum;
          }
        });
  }
  return Certify(
      graph, expected_degrees, options,
      [&](NodeId v) { return graph.Neighbors(v).size() + 1; },
      [&](std::size_t begin, std::size_t end, std::size_t width,
          std::size_t lo, std::size_t hi, double* s, double* t) {
        BuildAndFold(
            graph, [&](EdgeId e) { return probabilities[e]; }, begin, end,
            width, lo, hi, s, t);
      });
}

Result<ObfuscationCertificate> VerifyObfuscation(
    const graph::UncertainGraph& graph,
    const std::vector<DegreeDistribution>& dists,
    const ObfuscationOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  const std::size_t n = graph.num_nodes();
  if (dists.size() != n) {
    return Status::InvalidArgument(
        StrFormat("%zu degree distributions for %zu vertices", dists.size(),
                  static_cast<std::size_t>(n)));
  }
  if (n == 0) {
    return Status::InvalidArgument("cannot verify an empty graph");
  }
  return Certify(
      graph, graph.expected_degrees(), options,
      [&](NodeId v) { return dists[v].pmf().size(); },
      [&](std::size_t begin, std::size_t end, std::size_t /*width*/,
          std::size_t lo, std::size_t hi, double* s, double* t) {
        for (std::size_t u = begin; u < end; ++u) {
          const std::vector<double>& pmf = dists[u].pmf();
          FoldPmf(pmf.data(), pmf.size(), 0, lo, hi, s, t);
        }
      });
}

void EmitPrivacyCheckRecord(const ObfuscationCertificate& certificate) {
  if (!obs::Enabled()) return;
  obs::RecordSink* sink = obs::GlobalSink();
  if (sink == nullptr) return;
  sink->Write(obs::Record("privacy_check")
                  .Num("k", certificate.k)
                  .Num("eps", certificate.epsilon)
                  .Num("eps_hat", certificate.epsilon_hat)
                  .Bool("obfuscated", certificate.obfuscated)
                  .Int("vertices", certificate.vertices)
                  .Int("not_obfuscated", certificate.not_obfuscated)
                  .Num("min_entropy_bits", certificate.min_entropy_bits)
                  .Num("mean_entropy_bits", certificate.mean_entropy_bits)
                  .Int("distinct_omegas", certificate.distinct_omegas)
                  .Str("adversary", AdversaryModelName(certificate.adversary))
                  .Int("threads", certificate.threads)
                  .Num("wall_ms", certificate.wall_ms)
                  .Finish());
}

}  // namespace chameleon::privacy
