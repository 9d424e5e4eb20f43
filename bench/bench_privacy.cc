// The privacy-core benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_privacy --out=BENCH_privacy.json
//   chameleon_bench_diff BENCH_privacy.json <new BENCH_privacy.json>
//
// Covers the three layers of the privacy subsystem on fixed-seed graphs:
// the O(d²) Poisson-binomial PMF build, the O(n log n) uniqueness
// transform at 2k and 50k vertices, and the full (k,ε)-obfuscation
// verifier serial vs 8 workers (the
// parallel twin measures the sharded posterior sweep; on a single-core
// runner it degenerates gracefully to contention-free oversubscription).

#include <cstdint>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "harness.h"

namespace chameleon {
namespace {

// --------------------------------------------------------------------------
// pb_build_er_2k: all-vertex Poisson-binomial PMF build (serial) on a
// 2k-node / ~8k-edge graph — the O(Σ deg²) base cost of every verify.
// --------------------------------------------------------------------------
void BM_PoissonBinomialBuildEr2k(bench::BenchContext& context) {
  const graph::UncertainGraph graph = bench::SeededGraph(2000, 8.0);
  context.SetItemsPerIteration(graph.num_nodes());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto dists = privacy::BuildDegreeDistributions(graph, 1);
    bench::DoNotOptimize(dists.back().Mean());
  }
}
CHAMELEON_BENCHMARK(BM_PoissonBinomialBuildEr2k);

// --------------------------------------------------------------------------
// uniqueness_er_2k / _50k: the Gaussian-kernel commonness transform (sort,
// box moments, per-vertex box sums) with the Silverman bandwidth over 2k
// and 50k expected degrees, one worker. The pair shows the O(n log n)
// scaling: 25× the vertices cost about 25× the time, not 625×. Each graph is
// built once per process, outside the timed calls: at 50k the build
// costs more than the transform.
// --------------------------------------------------------------------------
void RunUniqueness(bench::BenchContext& context,
                   const graph::UncertainGraph& graph) {
  privacy::UniquenessOptions options;
  options.threads = 1;
  context.SetItemsPerIteration(graph.num_nodes());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto scores = privacy::ComputeUniqueness(graph, options);
    bench::DoNotOptimize(scores.value().scores.back());
  }
}

void BM_UniquenessEr2k(bench::BenchContext& context) {
  static const graph::UncertainGraph& graph =
      *new graph::UncertainGraph(bench::SeededGraph(2000, 8.0));
  RunUniqueness(context, graph);
}
CHAMELEON_BENCHMARK(BM_UniquenessEr2k);

void BM_UniquenessEr50k(bench::BenchContext& context) {
  static const graph::UncertainGraph& graph =
      *new graph::UncertainGraph(bench::SeededGraph(50000, 8.0));
  RunUniqueness(context, graph);
}
CHAMELEON_BENCHMARK(BM_UniquenessEr50k);

// --------------------------------------------------------------------------
// obf_verify_er_2k_serial / _8t: the full (k,ε)-obfuscation verifier —
// PMF build + posterior sweep + per-vertex classification — with one
// worker and with eight. The pair is the parallel-speedup probe: diff
// their medians on a multi-core runner.
// --------------------------------------------------------------------------
void RunVerifier(bench::BenchContext& context, int threads) {
  const graph::UncertainGraph graph = bench::SeededGraph(2000, 8.0);
  privacy::ObfuscationOptions options;
  options.k = 64.0;
  options.epsilon = 0.01;
  options.threads = threads;
  options.keep_per_vertex = false;
  context.SetItemsPerIteration(graph.num_nodes());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto cert = privacy::VerifyObfuscation(graph, options);
    bench::DoNotOptimize(cert.value().epsilon_hat);
  }
}

void BM_ObfVerifyEr2kSerial(bench::BenchContext& context) {
  RunVerifier(context, 1);
}
CHAMELEON_BENCHMARK(BM_ObfVerifyEr2kSerial);

void BM_ObfVerifyEr2k8t(bench::BenchContext& context) {
  RunVerifier(context, 8);
}
CHAMELEON_BENCHMARK(BM_ObfVerifyEr2k8t);

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::Main(argc, argv, "privacy");
}
