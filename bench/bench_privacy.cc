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
#include <cstdio>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/rng.h"
#include "harness.h"

namespace chameleon {
namespace {

constexpr std::uint64_t kSeed = 2018;

/// Deterministic Erdos-Renyi-style edge list (same construction as
/// bench_core, duplicated so the suites stay independent).
std::vector<std::tuple<NodeId, NodeId, double>> RandomEdges(NodeId nodes,
                                                            double avg_degree) {
  Rng rng(kSeed);
  const auto target =
      static_cast<std::size_t>(avg_degree * static_cast<double>(nodes) / 2.0);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  edges.reserve(target);
  while (edges.size() < target) {
    auto u = static_cast<NodeId>(rng.UniformInt(nodes));
    auto v = static_cast<NodeId>(rng.UniformInt(nodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
      continue;
    }
    edges.emplace_back(u, v, rng.Uniform(0.1, 0.9));
  }
  return edges;
}

graph::UncertainGraph BuildGraph(NodeId nodes, double avg_degree) {
  graph::UncertainGraphBuilder builder(nodes);
  for (const auto& [u, v, p] : RandomEdges(nodes, avg_degree)) {
    (void)builder.AddEdge(u, v, p);
  }
  auto graph = std::move(builder).Build();
  return std::move(graph).value();
}

// --------------------------------------------------------------------------
// pb_build_er_2k: all-vertex Poisson-binomial PMF build (serial) on a
// 2k-node / ~8k-edge graph — the O(Σ deg²) base cost of every verify.
// --------------------------------------------------------------------------
void BM_PoissonBinomialBuildEr2k(bench::BenchContext& context) {
  const graph::UncertainGraph graph = BuildGraph(2000, 8.0);
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
      *new graph::UncertainGraph(BuildGraph(2000, 8.0));
  RunUniqueness(context, graph);
}
CHAMELEON_BENCHMARK(BM_UniquenessEr2k);

void BM_UniquenessEr50k(bench::BenchContext& context) {
  static const graph::UncertainGraph& graph =
      *new graph::UncertainGraph(BuildGraph(50000, 8.0));
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
  const graph::UncertainGraph graph = BuildGraph(2000, 8.0);
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

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_bench_privacy: run the privacy-core benchmark suite and "
      "write a canonical BENCH_<suite>.json for chameleon_bench_diff");
  flags.AddString("out", "BENCH_privacy.json", "output BENCH json path");
  flags.AddString("suite", "privacy", "suite name stamped into the json");
  flags.AddBool("quick", false, "CI mode: fewer reps, shorter calibration");
  flags.AddInt64("reps", 0, "timed repetitions (0: mode default)");
  flags.AddString("filter", "", "only run benchmarks containing substring");
  flags.AddBool("list", false, "list benchmark names and exit");
  flags.AddBool("version", false, "print build provenance and exit");
  flags.AddBool("help", false, "show usage");

  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "error: %s\n%s", s.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fprintf(stdout, "%s", flags.Usage().c_str());
    return 0;
  }
  if (flags.GetBool("version")) {
    std::fprintf(stdout, "%s",
                 obs::VersionString("chameleon_bench_privacy").c_str());
    return 0;
  }
  if (flags.GetBool("list")) {
    for (const std::string& name : bench::RegisteredBenchmarkNames()) {
      std::fprintf(stdout, "%s\n", name.c_str());
    }
    return 0;
  }

  bench::BenchOptions options;
  if (flags.GetBool("quick")) options = bench::BenchOptions::Quick();
  if (flags.GetInt64("reps") > 0) {
    options.reps = static_cast<int>(flags.GetInt64("reps"));
  }
  options.filter = flags.GetString("filter");

  const std::vector<bench::BenchResult> results =
      bench::RunRegisteredBenchmarks(options);
  if (results.empty()) {
    std::fprintf(stderr, "no benchmarks matched filter \"%s\"\n",
                 options.filter.c_str());
    return 1;
  }

  const std::string& out = flags.GetString("out");
  if (Status s = bench::WriteBenchFile(out, flags.GetString("suite"), results,
                                       options);
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "wrote %s (%zu benchmarks)\n", out.c_str(),
               results.size());
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
