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
#include <cstdio>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/rng.h"
#include "harness.h"

namespace chameleon {
namespace {

constexpr std::uint64_t kSeed = 2018;

/// Deterministic Erdos-Renyi-style edge list (same construction as
/// bench_core/bench_privacy, duplicated so the suites stay independent).
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
      *new graph::UncertainGraph(BuildGraph(2000, 8.0));
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
      *new graph::UncertainGraph(BuildGraph(2000, 50.0));
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
    graph::UncertainGraph graph = BuildGraph(2000, 8.0);
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

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_bench_anonymize: run the anonymization benchmark suite "
      "and write a canonical BENCH_<suite>.json for chameleon_bench_diff");
  flags.AddString("out", "BENCH_anonymize.json", "output BENCH json path");
  flags.AddString("suite", "anonymize", "suite name stamped into the json");
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
                 obs::VersionString("chameleon_bench_anonymize").c_str());
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
