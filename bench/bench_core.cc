// The canonical "core" benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_core --out=BENCH_core.json
//   chameleon_bench_diff BENCH_core.json <new BENCH_core.json>
//
// Covers the hot paths of the reproduction: edge-list parsing and
// writing, CSR construction, possible-world sampling, and the Monte Carlo
// reliability estimators built on both. Fixed seeds everywhere so
// run-to-run deltas measure the code, not the workload.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/convergence.h"
#include "chameleon/reliability/reliability.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"
#include "harness.h"

namespace chameleon {
namespace {

constexpr std::uint64_t kSeed = 2018;

// --------------------------------------------------------------------------
// csr_build_er_2k: UncertainGraphBuilder::Build on a 2k-node / ~8k-edge
// Erdos-Renyi graph — sort, dedup, CSR adjacency, expected degrees.
// --------------------------------------------------------------------------
void BM_CsrBuildEr2k(bench::BenchContext& context) {
  const auto edges = bench::SeededEdges(2000, 8.0);
  context.SetItemsPerIteration(edges.size());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    graph::UncertainGraphBuilder builder(2000);
    for (const auto& [u, v, p] : edges) (void)builder.AddEdge(u, v, p);
    const auto graph = std::move(builder).Build();
    bench::DoNotOptimize(graph.value().num_edges());
  }
}
CHAMELEON_BENCHMARK(BM_CsrBuildEr2k);

// --------------------------------------------------------------------------
// parse_edge_list_er_2k: graph::ParseEdgeList on the same graph's edge
// list held in memory, laid out as a written one ("# nodes" header, pairs
// ascending, p to 17 significant digits) — the per-byte cost of reading
// an input, without the disk.
// --------------------------------------------------------------------------
void BM_ParseEdgeListEr2k(bench::BenchContext& context) {
  // Built once: the harness times every call, set-up included.
  static const graph::UncertainGraph written = bench::SeededGraph(2000, 8.0);
  static const std::string text = [] {
    std::string lines = "# nodes 2000\n";
    for (const graph::UncertainEdge& e : written.edges()) {
      lines += StrFormat("%u %u %.17g\n", e.u, e.v, e.p);
    }
    return lines;
  }();
  context.SetItemsPerIteration(written.num_edges());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto graph = graph::ParseEdgeList(text, "er2k.edges");
    bench::DoNotOptimize(graph.value().num_edges());
  }
}
CHAMELEON_BENCHMARK(BM_ParseEdgeListEr2k);

// --------------------------------------------------------------------------
// write_edge_list_er_2k: graph::WriteEdgeList of the same graph to a file
// in the temp directory — formatting plus the page-cache write a
// published graph costs.
// --------------------------------------------------------------------------
void BM_WriteEdgeListEr2k(bench::BenchContext& context) {
  static const graph::UncertainGraph graph = bench::SeededGraph(2000, 8.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "chameleon_bench_er2k.edges")
          .string();
  context.SetItemsPerIteration(graph.num_edges());
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const Status written = graph::WriteEdgeList(graph, path);
    bench::DoNotOptimize(written.ok());
  }
  std::remove(path.c_str());
}
CHAMELEON_BENCHMARK(BM_WriteEdgeListEr2k);

// --------------------------------------------------------------------------
// world_sample_er_2k: one possible world per iteration on the same graph
// — the innermost loop of every Monte Carlo estimate.
// --------------------------------------------------------------------------
void BM_WorldSampleEr2k(bench::BenchContext& context) {
  const graph::UncertainGraph graph = bench::SeededGraph(2000, 8.0);
  const rel::WorldSampler sampler(graph);
  context.SetItemsPerIteration(sampler.num_edges());
  Rng rng(kSeed);
  BitVector mask(sampler.num_edges());
  std::size_t present = 0;
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    present += sampler.SampleMask(rng, mask);
  }
  bench::DoNotOptimize(present);
}
CHAMELEON_BENCHMARK(BM_WorldSampleEr2k);

// --------------------------------------------------------------------------
// mc_two_terminal_500n_64w: full two-terminal reliability estimate
// (sampling + union-find) with 64 worlds per iteration.
// --------------------------------------------------------------------------
void BM_McTwoTerminal500n64w(bench::BenchContext& context) {
  const graph::UncertainGraph graph = bench::SeededGraph(500, 6.0);
  rel::MonteCarloOptions options;
  options.worlds = 64;
  options.heartbeat = false;
  context.SetItemsPerIteration(options.worlds);
  Rng rng(kSeed);
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto r = rel::TwoTerminalReliability(graph, 0, 1, options, rng);
    bench::DoNotOptimize(r.value());
  }
}
CHAMELEON_BENCHMARK(BM_McTwoTerminal500n64w);

// --------------------------------------------------------------------------
// pair_set_reliability_500n_8p: Algorithm 2's shared-world evaluation of
// 8 terminal pairs against 32 worlds.
// --------------------------------------------------------------------------
void BM_PairSetReliability500n8p(bench::BenchContext& context) {
  const graph::UncertainGraph graph = bench::SeededGraph(500, 6.0);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 0; i < 8; ++i) pairs.emplace_back(i, i + 100);
  rel::MonteCarloOptions options;
  options.worlds = 32;
  options.heartbeat = false;
  context.SetItemsPerIteration(options.worlds * pairs.size());
  Rng rng(kSeed);
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto r = rel::PairSetReliability(graph, pairs, options, rng);
    bench::DoNotOptimize(r.value().size());
  }
}
CHAMELEON_BENCHMARK(BM_PairSetReliability500n8p);

// --------------------------------------------------------------------------
// convergence_add_4k: 4096 Bernoulli samples through a ConvergenceTracker
// with no sink — the per-sample bookkeeping an estimator pays for
// telemetry-only tracking.
// --------------------------------------------------------------------------
void BM_ConvergenceAdd4k(bench::BenchContext& context) {
  constexpr std::size_t kSamples = 4096;
  context.SetItemsPerIteration(kSamples);
  Rng rng(kSeed);
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    obs::ConvergenceOptions options;
    options.use_global_sink = false;
    options.bernoulli = true;
    obs::ConvergenceTracker tracker("bench/convergence_add", options);
    for (std::size_t s = 0; s < kSamples; ++s) {
      tracker.AddBernoulli(rng.UniformDouble() < 0.5);
    }
    bench::DoNotOptimize(tracker.Snapshot().samples);
  }
}
CHAMELEON_BENCHMARK(BM_ConvergenceAdd4k);

// --------------------------------------------------------------------------
// mc_two_terminal_tracked_500n_64w: the BM_McTwoTerminal500n64w workload
// with a stopping rule configured (but unreachable within the world
// budget), so every world pays tracker.AddBernoulli + ShouldStop. Diff
// against the untracked twin for the adaptive-estimation overhead.
// --------------------------------------------------------------------------
void BM_McTwoTerminalTracked500n64w(bench::BenchContext& context) {
  const graph::UncertainGraph graph = bench::SeededGraph(500, 6.0);
  rel::MonteCarloOptions options;
  options.worlds = 64;
  options.heartbeat = false;
  options.target_ci_halfwidth = 1e-9;  // never satisfied at 64 worlds
  options.min_samples = 2;
  context.SetItemsPerIteration(options.worlds);
  Rng rng(kSeed);
  for (std::uint64_t i = 0; i < context.iterations(); ++i) {
    const auto r =
        rel::EstimateTwoTerminalReliability(graph, 0, 1, options, rng);
    bench::DoNotOptimize(r.value().worlds);
  }
}
CHAMELEON_BENCHMARK(BM_McTwoTerminalTracked500n64w);

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::Main(argc, argv, "core");
}
