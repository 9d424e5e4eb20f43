#include "chameleon/anonymize/gen_obf.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "chameleon/obs/obs.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::anonymize {
namespace {

/// Written so that NaN fails every check (and ±inf the unbounded one):
/// ε and c feed size_t casts of ⌈ε/2·|V|⌉ and ⌈c·|E|⌉.
Status ValidateOptions(const GenObfOptions& options) {
  if (!(options.k > 1.0 && std::isfinite(options.k))) {
    return Status::InvalidArgument(
        StrFormat("k = %g must be finite and > 1", options.k));
  }
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon = %g must be in [0, 1]", options.epsilon));
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
  return Status::OK();
}

/// Indices of the h highest-uniqueness vertices; ties broken toward the
/// lower id so the exclusion set is a pure function of the scores.
std::vector<bool> ExcludeHardest(const std::vector<double>& uniqueness,
                                 std::size_t h) {
  std::vector<NodeId> order(uniqueness.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (uniqueness[a] != uniqueness[b]) return uniqueness[a] > uniqueness[b];
    return a < b;
  });
  std::vector<bool> excluded(uniqueness.size(), false);
  for (std::size_t i = 0; i < h && i < order.size(); ++i) {
    excluded[order[i]] = true;
  }
  return excluded;
}

/// Eligible edges per block of the attempt's parallel sweeps. Fixed, so
/// the candidates' priority sum, taken as one partial per block merged
/// in block order, does not depend on the worker count.
constexpr std::size_t kEdgeBlock = 4096;

/// Mixing constants of the per-edge streams: odd, and distinct from
/// AttemptSeed's (anonymize/chameleon.cc) and the relevance estimator's
/// per-world ones, so no two of those streams start alike.
constexpr std::uint64_t kKeyMix = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kNoiseMix = 0x165667b19e3779f9ull;

/// The selection histogram buckets a key by its top bits: sign (always
/// 0), exponent and four mantissa bits, so +inf lands in the last
/// bucket in use.
constexpr int kBucketShift = 48;
constexpr std::size_t kBuckets = std::size_t{1} << (63 - kBucketShift);

/// Edge e's stream seed for one purpose (`mix`) in the attempt `seed`.
std::uint64_t EdgeSeed(std::uint64_t seed, std::uint64_t mix, EdgeId e) {
  std::uint64_t state = seed ^ (mix * (std::uint64_t{e} + 1));
  return SplitMix64(state);
}

/// Edge e's exponential key −ln(u)/Q^e (Efraimidis–Spirakis), as its
/// IEEE bit pattern. u is uniform in the open (0, 1): 52 random bits
/// plus one half, exact in a double, so the key is positive, or +inf
/// when Q^e is not; for such doubles the bit patterns order as the
/// values do.
std::uint64_t KeyBits(std::uint64_t seed, EdgeId e, double priority) {
  const double u =
      (static_cast<double>(EdgeSeed(seed, kKeyMix, e) >> 12) + 0.5) *
      0x1.0p-52;
  const double key = priority > 0.0 ? -std::log(u) / priority
                                    : std::numeric_limits<double>::infinity();
  return std::bit_cast<std::uint64_t>(key);
}

/// The want-th smallest (key, position) pair of `keys`, 1 ≤ want ≤
/// keys.size(): the pairs up to and including it are the candidates.
/// `counts` holds one histogram of the keys' top bits per contiguous
/// block of positions; the pair is found among the keys of the bucket
/// where the running count reaches `want`, gathered into `tied`.
std::pair<std::uint64_t, std::size_t> LastCandidate(
    const std::vector<std::uint64_t>& keys,
    const std::vector<std::vector<std::uint32_t>>& counts, std::size_t want,
    std::vector<std::pair<std::uint64_t, std::size_t>>& tied) {
  std::size_t below = 0;
  std::size_t bucket = 0;
  for (;; ++bucket) {
    std::size_t here = 0;
    for (const std::vector<std::uint32_t>& count : counts) {
      here += count[bucket];
    }
    if (below + here >= want) break;
    below += here;
  }
  tied.clear();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] >> kBucketShift == bucket) tied.emplace_back(keys[i], i);
  }
  const auto last =
      tied.begin() + static_cast<std::ptrdiff_t>(want - below - 1);
  std::nth_element(tied.begin(), last, tied.end());
  return *last;
}

/// Stamps PlanGenObf's plans; 0 is left for plans it did not make.
std::atomic<std::uint64_t> g_last_plan_id{0};

}  // namespace

Result<GenObfPlan> PlanGenObf(const graph::UncertainGraph& graph,
                              const std::vector<double>& uniqueness,
                              const GenObfOptions& options) {
  if (uniqueness.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("uniqueness has %zu scores for %u nodes", uniqueness.size(),
                  graph.num_nodes()));
  }
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  const auto& edges = graph.edges();

  // 1. Hardest-vertex exclusion: ⌈ε/2·|V|⌉ vertices, half the ε budget.
  GenObfPlan plan;
  plan.excluded_vertices = static_cast<std::size_t>(
      std::ceil(0.5 * options.epsilon * graph.num_nodes()));
  const std::vector<bool> excluded =
      ExcludeHardest(uniqueness, plan.excluded_vertices);
  plan.eligible.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!excluded[edges[e].u] && !excluded[edges[e].v]) {
      plan.eligible.push_back(static_cast<EdgeId>(e));
    }
  }
  plan.candidates = std::min(
      static_cast<std::size_t>(std::ceil(
          options.candidate_fraction * static_cast<double>(edges.size()))),
      plan.eligible.size());
  plan.id = g_last_plan_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return plan;
}

Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const GenObfPlan& plan,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng, GenObfScratch& scratch) {
  if (priorities.size() != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("priorities has %zu entries for %zu edges",
                  priorities.size(), graph.num_edges()));
  }
  if (!(sigma > 0.0 && std::isfinite(sigma))) {
    return Status::InvalidArgument(
        StrFormat("sigma = %g must be finite and > 0", sigma));
  }
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  if (plan.candidates > plan.eligible.size() ||
      (!plan.eligible.empty() && plan.eligible.back() >= graph.num_edges())) {
    return Status::InvalidArgument("plan does not fit this graph");
  }
  CHOBS_SPAN(span, "anonymize/genobf");
  WallTimer timer;
  const auto& edges = graph.edges();
  const std::vector<EdgeId>& eligible = plan.eligible;
  const std::size_t want = plan.candidates;

  // p̃ starts as p, once per vector and (plan, graph): every attempt
  // below rewrites every eligible edge, so the others keep p from this
  // fill.
  GenObfScratch::Probabilities& latest = scratch.latest_;
  if (!(plan.id != 0 && latest.plan == plan.id &&
        latest.edges == edges.data() && latest.p.size() == edges.size())) {
    latest.p.resize(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) latest.p[e] = edges[e].p;
    latest.plan = plan.id;
    latest.edges = edges.data();
  }
  double* perturbed = latest.p.data();

  // The attempt's one draw: every key and every noise draw below is a
  // pure function of (seed, edge id), so each sweep may run in any order
  // and on any number of workers.
  const std::uint64_t seed = rng();

  // 2. Q-weighted candidate selection without replacement: the ⌈c|E|⌉
  // smallest exponential keys, ties toward the lower edge id (a full
  // sort of the (key, edge) pairs would pick the same set). Zero-priority
  // edges get an infinite key and are chosen only when everything else
  // ran out. Keys and a histogram of their top bits are made per worker
  // block; the histograms (integers, so their sum is order-free) name the
  // one bucket the last candidate sits in, and only that bucket is
  // searched.
  std::vector<std::uint64_t>& keys = scratch.keys_;
  keys.resize(eligible.size());
  // Position i is a candidate iff its (key, i) pair, as one 128-bit
  // number, is below `bound`: one past the want-th smallest pair, or 0
  // when there are no candidates.
  using Pair = unsigned __int128;
  Pair bound = 0;
  if (want > 0) {
    const std::size_t workers =
        ParallelWorkers(eligible.size(), 1, options.threads);
    const std::size_t chunk = NumBlocks(eligible.size(), workers);
    std::vector<std::vector<std::uint32_t>>& counts = scratch.counts_;
    counts.resize(NumBlocks(eligible.size(), chunk));
    ParallelForBlocks(
        eligible.size(), chunk, options.threads,
        [&](std::size_t block, std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t>& count = counts[block];
          count.assign(kBuckets, 0);
          for (std::size_t i = begin; i < end; ++i) {
            const EdgeId e = eligible[i];
            keys[i] = KeyBits(seed, e, priorities[e]);
            ++count[keys[i] >> kBucketShift];
          }
        });
    const auto [last_key, last_position] =
        LastCandidate(keys, counts, want, scratch.tied_);
    bound = (Pair{last_key} << 64 | last_position) + 1;
  }
  const std::uint64_t* key = keys.data();
  const auto chosen = [key, bound](std::size_t i) {
    return (Pair{key[i]} << 64 | i) < bound;
  };

  // 3. Perturb each candidate at σ·Q^e normalized by the candidates'
  // mean priority, and reset every other eligible edge to p. The
  // priority sum is one partial per fixed block, merged in block order;
  // each candidate's noise comes from its own stream.
  std::vector<double>& partial_q = scratch.partial_q_;
  partial_q.assign(NumBlocks(eligible.size(), kEdgeBlock), 0.0);
  ParallelForBlocks(
      eligible.size(), kEdgeBlock, options.threads,
      [&](std::size_t block, std::size_t begin, std::size_t end) {
        double q = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          if (chosen(i)) q += priorities[eligible[i]];
        }
        partial_q[block] = q;
      });
  double q_sum = 0.0;
  for (const double q : partial_q) q_sum += q;
  const double q_mean = want > 0 ? q_sum / static_cast<double>(want) : 0.0;
  ParallelForBlocks(
      eligible.size(), kEdgeBlock, options.threads,
      [&](std::size_t /*block*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const EdgeId e = eligible[i];
          if (!chosen(i)) {
            perturbed[e] = edges[e].p;
            continue;
          }
          const double scale =
              q_mean > 0.0 ? sigma * priorities[e] / q_mean : sigma;
          Rng noise(EdgeSeed(seed, kNoiseMix, e));
          perturbed[e] = PerturbProbability(edges[e].p, scale, options.noise,
                                            options.white_noise, noise);
        }
      });

  // 4. Anonymity check of p̃ on the input's topology.
  privacy::ObfuscationOptions verify;
  verify.k = options.k;
  verify.epsilon = options.epsilon;
  verify.adversary = options.adversary;
  verify.threads = options.threads;
  verify.keep_per_vertex = false;
  Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(graph, scratch.probabilities(), verify);
  if (!certificate.ok()) return certificate.status();

  GenObfAttempt attempt;
  attempt.certificate = std::move(*certificate);
  attempt.sigma = sigma;
  attempt.perturbed_edges = want;
  attempt.excluded_vertices = plan.excluded_vertices;
  attempt.wall_ms = timer.ElapsedMillis();
  span.AddCount("candidates", want);
  span.AddCount("excluded", plan.excluded_vertices);
  return attempt;
}

Result<GenObfAttempt> GenObf(const graph::UncertainGraph& graph,
                             const std::vector<double>& uniqueness,
                             const std::vector<double>& priorities,
                             double sigma, const GenObfOptions& options,
                             Rng& rng) {
  Result<GenObfPlan> plan = PlanGenObf(graph, uniqueness, options);
  if (!plan.ok()) return plan.status();
  GenObfScratch scratch;
  Result<GenObfAttempt> attempt =
      GenObf(graph, *plan, priorities, sigma, options, rng, scratch);
  if (!attempt.ok()) return attempt.status();
  Result<graph::UncertainGraph> published =
      graph.WithProbabilities(scratch.probabilities());
  if (!published.ok()) return published.status();
  attempt->published = std::move(*published);
  return attempt;
}

}  // namespace chameleon::anonymize
