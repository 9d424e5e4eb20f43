// The anonymization benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_anonymize --out=BENCH_anonymize.json
//   chameleon_bench_diff BENCH_anonymize.json <new BENCH_anonymize.json>
//
// Covers the hot paths of the Chameleon core on fixed-seed graphs: the
// reused-sampling reliability-relevance sweep (the O(N·α·|E|) inner loop
// of RSME/RS) serial vs 8 workers on a sparse graph and serial on a
// dense and a fragmented one, one planned GenObf attempt on a reused
// scratch (candidate selection + perturbation + verification — the unit
// the σ search repeats) on a sparse and a dense graph, and the
// truncated-normal sampler the perturbation leans on.

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
//
// relevance_fragmented_2k: serial, on the sparse graph with every p
// scaled by 0.2 (present degree ~0.8), where no world has a component
// near half the vertices: every union, the flatten, and a sweep of
// nearly every edge, most of them between two components.
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

// Fixtures are built once per process, in the harness's untimed first
// call: they are immutable, and rebuilding one every repetition would
// time the build, not the benchmark.
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

void BM_RelevanceFragmented2k(bench::BenchContext& context) {
  static const graph::UncertainGraph& graph = *new graph::UncertainGraph([] {
    std::vector<double> p;
    for (const graph::UncertainEdge& edge : SparseEr2k().edges()) {
      p.push_back(edge.p * 0.2);
    }
    return SparseEr2k().WithProbabilities(p).value();
  }());
  RunRelevance(context, graph, 1);
}
CHAMELEON_BENCHMARK(BM_RelevanceFragmented2k);

// --------------------------------------------------------------------------
// gen_obf_attempt_er_2k / _dense_2k: one GenObf attempt at a fixed σ —
// Q-weighted candidate sampling, perturbation into the reused p̃, and the
// (k,ε) verification of p̃ — the unit the σ search repeats, on one
// worker. On the sparse graph (mean degree 8) selection and perturbation
// weigh most; on the dense one (mean degree 100) the degree PMFs the
// verifier builds, O(Σ deg²), dominate. Uniqueness, priorities, the plan
// (the hardest-vertex exclusion and the eligible edges) and the scratch
// are made once per process, as the driver makes them once per search,
// so the timed region is the attempt alone.
// --------------------------------------------------------------------------
struct AttemptFixture {
  anonymize::GenObfOptions options;
  graph::UncertainGraph graph;
  std::vector<double> priorities;
  anonymize::GenObfPlan plan;
  anonymize::GenObfScratch scratch;
  explicit AttemptFixture(double avg_degree)
      : graph(bench::SeededGraph(2000, avg_degree)) {
    options.k = 64.0;
    options.epsilon = 0.01;
    options.threads = 1;
    privacy::UniquenessOptions uniq_options;
    uniq_options.threads = 1;
    const std::vector<double> scores =
        privacy::ComputeUniqueness(graph, uniq_options).value().scores;
    priorities = anonymize::ComputeEdgePriorities(graph, scores, {}).value();
    plan = anonymize::PlanGenObf(graph, scores, options).value();
  }
};

void RunGenObfAttempt(bench::BenchContext& context, AttemptFixture& fixture) {
  context.SetItemsPerIteration(fixture.graph.num_edges());
  std::uint64_t attempt = 0;
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    Rng rng(kSeed + attempt++);
    const auto result = anonymize::GenObf(
        fixture.graph, fixture.plan, fixture.priorities, 0.05,
        fixture.options, rng, fixture.scratch);
    bench::DoNotOptimize(result.value().certificate.epsilon_hat);
  }
}

void BM_GenObfAttemptEr2k(bench::BenchContext& context) {
  static AttemptFixture& fixture = *new AttemptFixture(8.0);
  RunGenObfAttempt(context, fixture);
}
CHAMELEON_BENCHMARK(BM_GenObfAttemptEr2k);

void BM_GenObfAttemptDense2k(bench::BenchContext& context) {
  static AttemptFixture& fixture = *new AttemptFixture(100.0);
  RunGenObfAttempt(context, fixture);
}
CHAMELEON_BENCHMARK(BM_GenObfAttemptDense2k);

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
