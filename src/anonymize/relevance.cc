#include "chameleon/anonymize/relevance.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "chameleon/graph/union_find.h"
#include "chameleon/obs/convergence.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/progress.h"
#include "chameleon/obs/record.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/timer.h"

namespace chameleon::anonymize {
namespace {

constexpr double kZ95 = 1.96;

/// Independent per-world stream: hashing (seed, world) through splitmix
/// keeps the estimate a pure function of the seed and world index, so
/// blocking / threading / round boundaries cannot change any draw.
std::uint64_t PerWorldSeed(std::uint64_t seed, std::uint64_t world) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (world + 1));
  return SplitMix64(state);
}

/// Exact integer tallies over the worlds one block swept: per-edge delta
/// sums and absent counts, 12 bytes per edge. δ ≤ (|V|/2)², so a sum
/// over N worlds fits 64 bits while N·|V|² < 2⁶⁶. With every field an
/// integer, adding block tallies is exact in any order.
struct WorldTally {
  std::vector<std::uint64_t> delta_sum;
  std::vector<std::uint32_t> absent;
};

/// The absent counts of a block's connected worlds, bit-sliced: bit k of
/// edge e's count is bit e mod 64 of plane k of mask word ⌊e/64⌋, and a
/// word's planes sit together. A world adds its complemented mask word
/// by word with a ripple carry, 64 counters per operation, instead of
/// one increment per absent edge. A block of n worlds counts to at most
/// n, so bit_width(n) planes never carry out of the top one. The planes
/// are allocated by the first connected world, so a block whose worlds
/// never connect pays nothing.
class ConnectedAbsentCounts {
 public:
  ConnectedAbsentCounts(std::size_t num_edges, std::size_t block_worlds)
      : num_words_((num_edges + 63) / 64),
        num_planes_(static_cast<std::size_t>(std::bit_width(block_worlds))),
        last_word_edges_(num_edges % 64 == 0
                             ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (num_edges % 64)) - 1) {}

  /// Counts every edge absent from `mask` once. The last word's bits past
  /// the last edge are masked off: they are zero in `mask`, so their
  /// complement would count edges that do not exist.
  void AddAbsent(const BitVector& mask) {
    if (planes_.empty()) planes_.assign(num_words_ * num_planes_, 0);
    const std::uint64_t* const words = mask.words().data();
    std::uint64_t* plane = planes_.data();
    for (std::size_t i = 0; i < num_words_; ++i, plane += num_planes_) {
      std::uint64_t carry = ~words[i];
      if (i + 1 == num_words_) carry &= last_word_edges_;
      for (std::size_t k = 0; carry != 0; ++k) {
        const std::uint64_t next = plane[k] & carry;
        plane[k] ^= carry;
        carry = next;
      }
    }
  }

  /// Adds every edge's count to absent[e].
  void AddTo(std::uint32_t* absent) const {
    if (planes_.empty()) return;
    const std::uint64_t* plane = planes_.data();
    for (std::size_t i = 0; i < num_words_; ++i, plane += num_planes_) {
      for (std::size_t k = 0; k < num_planes_; ++k) {
        for (std::uint64_t bits = plane[k]; bits != 0; bits &= bits - 1) {
          absent[(i << 6) + static_cast<std::size_t>(std::countr_zero(bits))] +=
              std::uint32_t{1} << k;
        }
      }
    }
  }

 private:
  std::size_t num_words_;
  std::size_t num_planes_;
  /// The bits of the last mask word that are edges.
  std::uint64_t last_word_edges_;
  std::vector<std::uint64_t> planes_;
};

/// A vertex's component after one world's unions, flattened once per
/// world so the edge sweep reads one slot per endpoint instead of
/// calling Find.
struct Component {
  NodeId root;
  NodeId size;
};

/// Samples worlds [begin, end), adds their contributions to `tally`, and
/// writes world w's total mass Σ_e δ_e(w) to masses[w - begin]. Worlds
/// are sampled four at a time; a tail of one to three uses the scalar
/// sampler, which draws the same coins.
void TallyWorlds(const graph::UncertainGraph& graph,
                 const rel::WorldSampler& sampler, std::uint64_t seed,
                 std::size_t begin, std::size_t end, WorldTally& tally,
                 std::uint64_t* masses) {
  constexpr std::size_t kLanes = rel::WorldSampler::kLanes;
  const std::size_t num_edges = graph.num_edges();
  const NodeId num_nodes = graph.num_nodes();
  if (tally.absent.size() != num_edges) {
    tally.delta_sum.assign(num_edges, 0);
    tally.absent.assign(num_edges, 0);
  }
  std::uint64_t* const delta_sum = tally.delta_sum.data();
  std::uint32_t* const absent = tally.absent.data();
  graph::UnionFind dsu(num_nodes);
  std::vector<Component> component(num_nodes);
  ConnectedAbsentCounts connected_absent(num_edges, end - begin);
  std::array<BitVector, kLanes> masks;
  for (BitVector& mask : masks) mask.Resize(num_edges);
  const auto& edges = graph.edges();
  const auto tally_world = [&](const BitVector& mask) {
    std::uint64_t mass = 0;
    // A connected world is one component whatever edges follow the last
    // union, so every δ is 0 and only its absent counts are kept.
    if (rel::UniteWorld(graph, mask, dsu)) {
      connected_absent.AddAbsent(mask);
      return mass;
    }
    for (NodeId v = 0; v < num_nodes; ++v) {
      const NodeId root = dsu.Find(v);
      component[v] = {root, dsu.ComponentSize(root)};
    }
    mask.ForEachClear([&](std::size_t e) {
      ++absent[e];
      const Component cu = component[edges[e].u];
      const Component cv = component[edges[e].v];
      if (cu.root == cv.root) return;
      const std::uint64_t delta = std::uint64_t{cu.size} * cv.size;
      delta_sum[e] += delta;
      mass += delta;
    });
    return mass;
  };
  std::size_t w = begin;
  for (; end - w >= kLanes; w += kLanes) {
    std::array<std::uint64_t, kLanes> seeds;
    for (std::size_t l = 0; l < kLanes; ++l) {
      seeds[l] = PerWorldSeed(seed, w + l);
    }
    sampler.SampleFourMasks(seeds, masks);
    for (std::size_t l = 0; l < kLanes; ++l) {
      masses[w + l - begin] = tally_world(masks[l]);
    }
  }
  for (; w < end; ++w) {
    Rng rng(PerWorldSeed(seed, w));
    sampler.SampleMask(rng, masks[0]);
    masses[w - begin] = tally_world(masks[0]);
  }
  connected_absent.AddTo(absent);
}

void EmitRelevanceProgress(obs::RecordSink& sink, std::size_t worlds,
                           std::size_t total_worlds, double mean_err,
                           double max_err, double mean_world_mass,
                           double ci_halfwidth, double rel_err, bool final,
                           bool stopped_early) {
  obs::Record record("relevance_progress");
  record.Str("label", "anonymize/relevance")
      .Int("worlds", worlds)
      .Int("total_worlds", total_worlds)
      .Num("mean_err", mean_err)
      .Num("max_err", max_err)
      .Num("mean_world_mass", mean_world_mass)
      .Num("ci_halfwidth", ci_halfwidth)
      .Num("rel_err", rel_err);
  if (final) record.Bool("final", true).Bool("stopped_early", stopped_early);
  sink.Write(record.Finish());
}

/// Finalizes the float view of the block tallies, summed per edge.
void FinalizeEstimates(const std::vector<WorldTally>& tallies,
                       const RunningStats& world_mass, EdgeRelevance& out) {
  const std::size_t num_edges = out.err.size();
  double err_sum = 0.0;
  out.max_err = 0.0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    std::uint32_t n = 0;
    std::uint64_t delta_sum = 0;
    for (const WorldTally& tally : tallies) {
      n += tally.absent[e];
      delta_sum += tally.delta_sum[e];
    }
    out.absent_worlds[e] = n;
    if (n == 0) {
      out.err[e] = 0.0;
      continue;
    }
    const double mean = static_cast<double>(delta_sum) / n;
    out.err[e] = mean;
    err_sum += mean;
    out.max_err = std::max(out.max_err, mean);
  }
  out.mean_err =
      num_edges == 0 ? 0.0 : err_sum / static_cast<double>(num_edges);
  out.mean_world_mass = world_mass.mean();
}

Status ValidateOptions(const RelevanceOptions& options) {
  if (options.worlds == 0) {
    return Status::InvalidArgument("relevance worlds must be positive");
  }
  return Status::OK();
}

void FillVertexErr(const graph::UncertainGraph& graph, EdgeRelevance& out) {
  out.vertex_err.assign(graph.num_nodes(), 0.0);
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    out.vertex_err[edges[e].u] += out.err[e];
    out.vertex_err[edges[e].v] += out.err[e];
  }
}

}  // namespace

Result<EdgeRelevance> EstimateRelevance(const graph::UncertainGraph& graph,
                                        const RelevanceOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  CHOBS_SPAN(span, "anonymize/relevance");
  WallTimer timer;
  const std::size_t num_edges = graph.num_edges();
  const rel::WorldSampler sampler(graph);

  EdgeRelevance out;
  out.err.assign(num_edges, 0.0);
  out.absent_worlds.assign(num_edges, 0);

  std::vector<WorldTally> tallies;
  RunningStats world_mass;

  obs::ProgressHeartbeat progress(
      "anonymize/relevance/sample_worlds",
      options.heartbeat ? options.worlds : 0,
      obs::ProgressHeartbeat::Options{
          .log = options.heartbeat,
          .sink = nullptr,
          .use_global_sink = options.heartbeat});

  // Worlds are processed in rounds whose boundaries are the geometric
  // convergence checkpoints (min_worlds, then doubling). Each round is
  // cut into one contiguous block per granted worker, and each block
  // adds into its own integer tally. Integer sums do not depend on how
  // the worlds were split, and world masses fold into the running stats
  // in world order, so every estimate — and the early-stop decision —
  // is independent of the worker count.
  const std::size_t min_worlds =
      std::max<std::size_t>(1, std::min(options.min_worlds, options.worlds));
  std::size_t done = 0;
  std::size_t next_checkpoint = min_worlds;
  bool stopped_early = false;
  std::vector<std::uint64_t> masses;
  while (done < options.worlds) {
    const std::size_t round_end = std::min(options.worlds, next_checkpoint);
    const std::size_t round = round_end - done;
    // One world draws a coin per edge, so a world costs |E| units of work.
    const std::size_t workers =
        ParallelWorkers(round, 1, options.threads, num_edges);
    const std::size_t block_size = NumBlocks(round, workers);
    const std::size_t blocks = NumBlocks(round, block_size);
    if (tallies.size() < blocks) tallies.resize(blocks);
    masses.assign(round, 0);
    const std::size_t round_begin = done;
    ParallelForBlocks(
        round, block_size, options.threads,
        [&](std::size_t block, std::size_t begin, std::size_t end) {
          TallyWorlds(graph, sampler, options.seed, round_begin + begin,
                      round_begin + end, tallies[block],
                      masses.data() + begin);
        },
        num_edges);
    for (const std::uint64_t mass : masses) {
      world_mass.Add(static_cast<double>(mass));
    }
    done = round_end;
    next_checkpoint = round_end * 2;
    progress.Tick(done);

    const double hw = obs::NormalCiHalfwidth(world_mass.variance(),
                                             world_mass.count(), kZ95);
    const double mean_mass = world_mass.mean();
    const double rel_err = mean_mass == 0.0 ? 0.0 : hw / std::abs(mean_mass);
    const bool converged = options.max_rel_err > 0.0 && done >= min_worlds &&
                           mean_mass != 0.0 &&
                           rel_err <= options.max_rel_err;
    const bool final = converged || done >= options.worlds;
    stopped_early = converged && done < options.worlds;
    // The estimates are read after the last round; a relevance_progress
    // record is the only reader of an earlier round's, so a round that
    // writes none skips the pass over every edge and tally.
    obs::RecordSink* const sink = obs::Enabled() ? obs::GlobalSink() : nullptr;
    if (final || sink != nullptr) FinalizeEstimates(tallies, world_mass, out);
    if (sink != nullptr) {
      EmitRelevanceProgress(*sink, done, options.worlds, out.mean_err,
                            out.max_err, mean_mass, hw, rel_err, final,
                            stopped_early);
    }
    if (converged) break;
  }
  progress.Finish();

  out.worlds = done;
  out.stopped_early = stopped_early;
  FillVertexErr(graph, out);
  out.wall_ms = timer.ElapsedMillis();
  span.AddCount("worlds", done);
  span.AddCount("edges", num_edges);
  return out;
}

Result<EdgeRelevanceWithVariance> EstimateRelevanceNaive(
    const graph::UncertainGraph& graph, const RelevanceOptions& options) {
  CHAMELEON_RETURN_IF_ERROR(ValidateOptions(options));
  CHOBS_SPAN(span, "anonymize/relevance_naive");
  WallTimer timer;
  const std::size_t num_edges = graph.num_edges();
  const auto& edges = graph.edges();

  EdgeRelevanceWithVariance out;
  out.err.assign(num_edges, 0.0);
  out.err_variance.assign(num_edges, 0.0);
  out.absent_worlds.assign(num_edges, 0);

  graph::UnionFind dsu(graph.num_nodes());
  BitVector mask(num_edges);
  const rel::WorldSampler sampler(graph);
  RunningStats world_mass;
  for (std::size_t target = 0; target < num_edges; ++target) {
    RunningStats deltas;
    for (std::size_t w = 0; w < options.worlds; ++w) {
      // A distinct stream per (edge, world): the naive oracle must be
      // independent of the reused pool for the cross-validation bound to
      // treat the two estimates as uncorrelated.
      std::uint64_t state =
          options.seed ^ (0xbf58476d1ce4e5b9ull * (target + 1));
      Rng rng(PerWorldSeed(SplitMix64(state), w));
      sampler.SampleMask(rng, mask);
      mask.Clear(target);  // condition on e absent: worlds of W' only
      dsu.Reset();
      for (std::size_t e = 0; e < num_edges; ++e) {
        if (mask.Get(e)) dsu.Union(edges[e].u, edges[e].v);
      }
      std::uint64_t delta = 0;
      if (!dsu.Connected(edges[target].u, edges[target].v)) {
        delta = std::uint64_t{dsu.ComponentSize(edges[target].u)} *
                dsu.ComponentSize(edges[target].v);
      }
      deltas.Add(static_cast<double>(delta));
    }
    out.err[target] = deltas.mean();
    out.err_variance[target] =
        deltas.count() >= 2
            ? deltas.variance() / static_cast<double>(deltas.count())
            : 0.0;
    out.absent_worlds[target] =
        static_cast<std::uint32_t>(options.worlds);
    world_mass.Add(out.err[target]);
  }
  out.worlds = options.worlds;
  double err_sum = 0.0;
  for (const double v : out.err) {
    err_sum += v;
    out.max_err = std::max(out.max_err, v);
  }
  out.mean_err =
      num_edges == 0 ? 0.0 : err_sum / static_cast<double>(num_edges);
  out.mean_world_mass = err_sum;
  FillVertexErr(graph, out);
  out.wall_ms = timer.ElapsedMillis();
  span.AddCount("edges", num_edges);
  return out;
}

}  // namespace chameleon::anonymize
