// The privacy-core benchmark suite behind the perf-regression gate:
//
//   chameleon_bench_privacy --out=BENCH_privacy.json
//   chameleon_bench_privacy --filter=verify_speedup   # the speedup gate
//   chameleon_bench_diff BENCH_privacy.json <new BENCH_privacy.json>
//
// Covers the privacy subsystem on fixed-seed graphs: the O(n log n)
// uniqueness transform at 2k and 50k vertices, and the full
// (k,ε)-obfuscation verifier serial vs 8 workers. The verify_speedup
// gate times the verifier every GenObf attempt ends in, on its
// probability vector, one worker against two, on a graph dense enough
// that the second worker must pay: the one parallel-speedup check. Exit
// 1 when the gate fails.

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/timer.h"
#include "harness.h"

namespace chameleon {
namespace {

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
// worker and with eight. A 2k-vertex verify is shorter than a spawned
// thread's start, so the pair shows the fork-join cost, not a speedup;
// the verify_speedup gate below measures that.
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

// --------------------------------------------------------------------------
// verify_speedup: the verifier a GenObf attempt runs —
// VerifyObfuscation(graph, p̃, …), the PMF build and posterior sweep on a
// probability vector over the graph's topology — on 8k vertices of mean
// degree 100 at k = 100, ε = 0.01, one worker against two. A one-worker
// call takes ~25 ms, long enough that the second worker's start (a
// scheduler tick on a busy host) does not decide the ratio. It fails iff
// the one-worker median rep over the two-worker one is below 1.3, with
// no noise-floor exemption, and is skipped where the process may use
// fewer than two CPUs. The constants below are the whole gate.
// --------------------------------------------------------------------------
namespace verify_speedup {

constexpr NodeId kNodes = 8000;
constexpr double kAvgDegree = 100.0;
constexpr double kK = 100.0;
constexpr double kEpsilon = 0.01;
constexpr int kWorkers = 2;
constexpr double kMinSpeedup = 1.3;

/// The CPUs this process may run on: its affinity mask, so a cpuset or
/// `taskset` that grants one CPU skips the gate like a one-CPU host.
int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

Result<bench::GateOutcome> Gate(int reps) {
  const graph::UncertainGraph graph = bench::SeededGraph(kNodes, kAvgDegree);
  std::vector<double> probabilities;
  probabilities.reserve(graph.num_edges());
  for (const graph::UncertainEdge& edge : graph.edges()) {
    probabilities.push_back(edge.p);
  }
  const auto arm = [&graph, &probabilities](int threads) {
    privacy::ObfuscationOptions options;
    options.k = kK;
    options.epsilon = kEpsilon;
    options.threads = threads;
    options.keep_per_vertex = false;
    return [&graph, &probabilities, options](std::size_t iterations) {
      const std::uint64_t start = MonotonicNanos();
      for (std::size_t i = 0; i < iterations; ++i) {
        bench::DoNotOptimize(
            privacy::VerifyObfuscation(graph, probabilities, options)
                .value()
                .epsilon_hat);
      }
      return static_cast<double>(MonotonicNanos() - start);
    };
  };
  return bench::RunSpeedupGate("BM_ObfVerifyDense8kSerial", arm(1),
                               "BM_ObfVerifyDense8k2t", arm(kWorkers),
                               kMinSpeedup, kWorkers, UsableCpus(), reps);
}

}  // namespace verify_speedup

CHAMELEON_GATE(verify_speedup, verify_speedup::Gate);

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::Main(argc, argv, "privacy");
}
