// The anonymization benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_anonymize --out=BENCH_anonymize.json
//   chameleon_bench_diff BENCH_anonymize.json <new BENCH_anonymize.json>
//
// Covers the hot paths of the Chameleon core on fixed-seed graphs: the
// reused-sampling reliability-relevance sweep (the O(N·α·|E|) inner loop
// of RSME/RS) serial vs 8 workers on a sparse graph and serial on a
// dense one, one full GenObf attempt (candidate selection + perturbation
// + verification — the unit of the σ search), and the truncated-normal
// sampler the perturbation leans on.

#include <cstdint>
#include <vector>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"
#include "harness.h"

namespace chameleon {
namespace {

constexpr std::uint64_t kSeed = 2018;

// --------------------------------------------------------------------------
// relevance_er_2k_serial / _8t: the reused-sampling ERR^e estimator over
// 200 worlds on a 2k-node / ~8k-edge graph, where a world is a giant
// component plus fragments: unions over every present edge, then a sweep
// of the absent edges. The pair probes the per-worker integer tallies
// (bit-identical results are asserted in tests, speed here). Its rounds
// are only a few ms long, so the 8t row gains only where spawned threads
// start well within that.
//
// relevance_dense_2k: the same estimator, serial, on 2k nodes at average
// degree ~50, where every world is connected: coins, unions until one
// component is left, and the absent counts; no edge is swept.
// --------------------------------------------------------------------------
void RunRelevance(bench::BenchContext& context,
                  const graph::UncertainGraph& graph, int threads) {
  anonymize::RelevanceOptions options;
  options.worlds = 200;
  options.threads = threads;
  options.heartbeat = false;
  context.SetItemsPerIteration(options.worlds * graph.num_edges());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto rel = anonymize::EstimateRelevance(graph, options);
    bench::DoNotOptimize(rel.value().mean_err);
  }
}

// Fixtures are built once per process: they are immutable, and rebuilding
// one every repetition would skew quick mode, where calibration settles
// on a single iteration and setup cost cannot amortize.
const graph::UncertainGraph& SparseEr2k() {
  static const graph::UncertainGraph& graph =
      *new graph::UncertainGraph(bench::SeededGraph(2000, 8.0));
  return graph;
}

void BM_RelevanceEr2kSerial(bench::BenchContext& context) {
  RunRelevance(context, SparseEr2k(), 1);
}
CHAMELEON_BENCHMARK(BM_RelevanceEr2kSerial);

void BM_RelevanceEr2k8t(bench::BenchContext& context) {
  RunRelevance(context, SparseEr2k(), 8);
}
CHAMELEON_BENCHMARK(BM_RelevanceEr2k8t);

void BM_RelevanceDense2k(bench::BenchContext& context) {
  static const graph::UncertainGraph& graph =
      *new graph::UncertainGraph(bench::SeededGraph(2000, 50.0));
  RunRelevance(context, graph, 1);
}
CHAMELEON_BENCHMARK(BM_RelevanceDense2k);

// --------------------------------------------------------------------------
// gen_obf_attempt_er_2k: one full GenObf attempt at a fixed σ —
// hardest-vertex exclusion, Q-weighted candidate sampling, perturbation,
// and the (k,ε) verification — the repeated unit of the σ search.
// Uniqueness and priorities are precomputed once, as the driver does.
// --------------------------------------------------------------------------
void BM_GenObfAttemptEr2k(bench::BenchContext& context) {
  // Graph, uniqueness scores, and priorities are computed once per
  // process, exactly as the sigma-search driver amortizes them across
  // attempts, so the timed region is the attempt alone.
  struct Fixture {
    graph::UncertainGraph graph = bench::SeededGraph(2000, 8.0);
    std::vector<double> scores;
    std::vector<double> priorities;
    Fixture() {
      privacy::UniquenessOptions uniq_options;
      uniq_options.threads = 1;
      scores = privacy::ComputeUniqueness(graph, uniq_options).value().scores;
      priorities =
          anonymize::ComputeEdgePriorities(graph, scores, {}).value();
    }
  };
  static const Fixture& fixture = *new Fixture();
  anonymize::GenObfOptions options;
  options.k = 64.0;
  options.epsilon = 0.01;
  options.threads = 1;
  context.SetItemsPerIteration(fixture.graph.num_edges());
  std::uint64_t attempt = 0;
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    Rng rng(kSeed + attempt++);
    const auto result =
        anonymize::GenObf(fixture.graph, fixture.scores, fixture.priorities,
                          0.05, options, rng);
    bench::DoNotOptimize(result.value().certificate.epsilon_hat);
  }
}
CHAMELEON_BENCHMARK(BM_GenObfAttemptEr2k);

// --------------------------------------------------------------------------
// trunc_normal_draws: the truncated-normal sampler across the three
// acceptance regimes the perturbation exercises (half-line σ ≪ 1,
// mode-covered window, narrow slab), 4096 draws per iteration.
// --------------------------------------------------------------------------
void BM_TruncatedNormalDraws(bench::BenchContext& context) {
  constexpr std::uint64_t kDraws = 4096;
  Rng rng(kSeed);
  context.SetItemsPerIteration(kDraws);
  double sink = 0.0;
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    for (std::uint64_t d = 0; d < kDraws; d += 3) {
      sink += rng.TruncatedGaussian(0.0, 0.05, 0.0, 1.0);
      sink += rng.TruncatedGaussian(0.0, 1.0, -1.0, 1.0);
      sink += rng.TruncatedGaussian(0.0, 1.0, 0.2, 0.3);
    }
    bench::DoNotOptimize(sink);
  }
}
CHAMELEON_BENCHMARK(BM_TruncatedNormalDraws);

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::Main(argc, argv, "anonymize");
}
