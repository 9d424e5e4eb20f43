// The overhead gates of the observability layer, all in one binary:
//
//   chameleon_bench_overhead --out=BENCH_overhead.json   # all seven gates
//   chameleon_bench_overhead --filter=flight              # one gate
//
// Each gate times a baseline arm against the same loop with one engine's
// hook in it, under the harness's paired rule (RunPairedGate): calibrate
// on the baseline to ~150 ms a rep, alternate the arms rep by rep, and
// fail iff the median overhead exceeds the gate's budget AND the median
// delta exceeds 3x the worse arm's MAD. Each budget is the constant in
// its gate's namespace. Every gate starts and ends with observability
// dormant, and checks that its dormant arm recorded nothing. The
// profiler and heap_active gates are skipped, not failed, where their
// engine cannot start (both under OBS=OFF, the heap sampler under a
// sanitizer). Exit 0 when every gate passes or skips, 1 when one fails,
// 2 on a usage error.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/heap_profiler.h"
#include "chameleon/obs/hw_counters.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/parallel_stats.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/reliability/reliability.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/timer.h"
#include "harness.h"

namespace chameleon {
namespace {

using bench::GateOutcome;

constexpr std::uint64_t kSeed = 2018;

/// Every gate measures from, and hands back, a dormant process: no sink,
/// no CPU or heap sampler, no hw counters.
Status ExpectDormant(const char* when) {
  if (obs::Enabled() || obs::ProfilerRunning() || obs::HeapProfilerActive() ||
      obs::HwCountersActive()) {
    return Status::FailedPrecondition(
        std::string("observability is not dormant ") + when);
  }
  return Status::OK();
}

/// Brackets a gate with the dormancy checks.
bench::GateFn Dormant(Result<GateOutcome> (*gate)(int reps)) {
  return [gate](int reps) -> Result<GateOutcome> {
    CHAMELEON_RETURN_IF_ERROR(ExpectDormant("before the gate"));
    Result<GateOutcome> outcome = gate(reps);
    CHAMELEON_RETURN_IF_ERROR(ExpectDormant("after the gate"));
    return outcome;
  };
}

// --------------------------------------------------------------------------
// obs_dormant: the possible-world sampler hot loop. The raw arm is a
// copy of SampleMask's word build with no library call (the integer coin
// thresholds come from rel::CoinThreshold beforehand); the candidate is
// WorldSampler::SampleMask with observability dormant. One iteration
// samples one world of a 65,536-edge ring.
// --------------------------------------------------------------------------
namespace obs_dormant {

constexpr double kBudget = 0.02;
constexpr NodeId kRingNodes = 65536;

graph::UncertainGraph MakeRing(NodeId n) {
  graph::UncertainGraphBuilder builder(n);
  Rng rng(7);
  for (NodeId u = 0; u < n; ++u) {
    CH_CHECK(builder.AddEdge(u, (u + 1) % n, rng.UniformDouble()).ok());
  }
  auto g = std::move(builder).Build();
  CH_CHECK(g.ok());
  return *std::move(g);
}

/// SampleMask's word build without its counters, integer thresholds
/// included, so raw vs dormant differs only by the dormant counters. Out
/// of line like SampleMask, so both arms pay one call per world and the
/// loop keeps the generator state in registers, as SampleMask's does.
__attribute__((noinline)) std::size_t RawSampleMask(
    const std::vector<std::uint64_t>& coin_thresholds, Rng& rng,
    BitVector& mask) {
  CH_CHECK(mask.size() == coin_thresholds.size());
  Rng local_rng = rng;
  const std::uint64_t* const thresholds = coin_thresholds.data();
  const std::size_t num = coin_thresholds.size();
  std::uint64_t* const words = mask.mutable_words().data();
  std::size_t present = 0;
  for (std::size_t base = 0; base < num; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, num - base);
    const std::uint64_t* const t = thresholds + base;
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < len; ++j) {
      word |= std::uint64_t{(local_rng() >> 11) < t[j]} << j;
    }
    words[base >> 6] = word;
    present += static_cast<std::size_t>(std::popcount(word));
  }
  rng = local_rng;
  return present;
}

Result<GateOutcome> Gate(int reps) {
  const graph::UncertainGraph g = MakeRing(kRingNodes);
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(g.num_edges());
  for (const auto& e : g.edges()) {
    thresholds.push_back(rel::CoinThreshold(e.p));
  }
  Rng rng(11);
  BitVector mask(g.num_edges());
  const auto raw = [&](std::size_t iterations) {
    const std::uint64_t start = MonotonicNanos();
    for (std::size_t i = 0; i < iterations; ++i) {
      bench::DoNotOptimize(RawSampleMask(thresholds, rng, mask));
    }
    return static_cast<double>(MonotonicNanos() - start);
  };

  const rel::WorldSampler sampler(g);
  Rng sampler_rng(11);
  BitVector sampler_mask(g.num_edges());
  const auto dormant = [&](std::size_t iterations) {
    const std::uint64_t start = MonotonicNanos();
    for (std::size_t i = 0; i < iterations; ++i) {
      bench::DoNotOptimize(sampler.SampleMask(sampler_rng, sampler_mask));
    }
    return static_cast<double>(MonotonicNanos() - start);
  };
  return GateOutcome{bench::RunPairedGate("BM_RawBernoulliLoop", raw,
                                          "BM_SamplerObsDormant", dormant,
                                          kBudget, reps),
                     {}};
}

}  // namespace obs_dormant

// --------------------------------------------------------------------------
// profiler: the same Monte Carlo two-terminal estimate on the 1,000-node
// ER graph with the sampling profiler off and on at 99 Hz. The profiler
// samples only threads that open spans, and spans only run with a live
// sink, so both arms stream to /dev/null.
// --------------------------------------------------------------------------
namespace profiler {

constexpr double kBudget = 0.03;
constexpr int kHz = 99;
constexpr NodeId kNodes = 1000;

/// One timed repetition of the workload: a fixed-size two-terminal MC
/// estimate. Returns wall nanoseconds.
double TimeWorkload(const graph::UncertainGraph& graph, std::size_t worlds) {
  Rng rng(kSeed);
  rel::MonteCarloOptions mc;
  mc.worlds = worlds;
  const std::uint64_t start = MonotonicNanos();
  const auto estimate =
      rel::EstimateTwoTerminalReliability(graph, 0, 1, mc, rng);
  const std::uint64_t stop = MonotonicNanos();
  bench::DoNotOptimize(estimate.ok() ? estimate->reliability : 0.0);
  return static_cast<double>(stop - start);
}

Result<GateOutcome> Measure(int reps) {
  obs::ProfilerOptions profiler_options;
  profiler_options.hz = kHz;
  profiler_options.emit_record = false;
  if (Status s = obs::StartGlobalProfiler(profiler_options); !s.ok()) {
    // OBS=OFF build or non-Linux host: nothing to measure, and nothing
    // to gate — the profiler genuinely costs zero here.
    return GateOutcome{{}, "profiler unavailable: " + s.ToString()};
  }
  CHAMELEON_RETURN_IF_ERROR(obs::StopGlobalProfiler().status());

  const graph::UncertainGraph graph = bench::SeededGraph(kNodes, 8.0);
  Status arm_status = Status::OK();
  std::uint64_t samples = 0;
  const auto off = [&](std::size_t worlds) {
    return TimeWorkload(graph, worlds);
  };
  const auto on = [&](std::size_t worlds) {
    if (Status s = obs::StartGlobalProfiler(profiler_options); !s.ok()) {
      arm_status = s;
      return 0.0;
    }
    const double ns = TimeWorkload(graph, worlds);
    Result<obs::ProfileReport> report = obs::StopGlobalProfiler();
    if (!report.ok()) {
      arm_status = report.status();
    } else {
      samples += report->samples;
    }
    return ns;
  };
  GateOutcome outcome{
      bench::RunPairedGate("BM_McReliability_ProfilerOff", off,
                           "BM_McReliability_ProfilerOn", on, kBudget, reps),
      {}};
  CHAMELEON_RETURN_IF_ERROR(arm_status);
  std::fprintf(stderr, "profiler: %llu samples over %d profiled reps\n",
               static_cast<unsigned long long>(samples), reps);
  return outcome;
}

Result<GateOutcome> Gate(int reps) {
  obs::ObsOptions obs_options;
  obs_options.metrics_out = "/dev/null";
  obs_options.read_env = false;
  CHAMELEON_RETURN_IF_ERROR(obs::InitObservability(obs_options));
  Result<GateOutcome> outcome = Measure(reps);
  obs::ShutdownObservability();
  return outcome;
}

}  // namespace profiler

// --------------------------------------------------------------------------
// flight: a sampling-style inner loop with one CHOBS_FLIGHT_EVENT per
// iteration, dormant, against the same loop bare. This is the density
// worst case — real call sites record per phase / heartbeat / graph op,
// not per world — so passing here bounds every realistic placement.
// --------------------------------------------------------------------------
namespace flight {

constexpr double kBudget = 0.02;

/// A world-sampling stand-in: per iteration, a handful of RNG draws and
/// an accumulate — comparable work to flipping the edges of a small
/// world. `instrumented` adds the dormant macro per iteration.
template <bool instrumented>
double TimeLoop(std::size_t iterations) {
  Rng rng(kSeed);
  std::uint64_t acc = 0;
  const std::uint64_t start = MonotonicNanos();
  for (std::size_t i = 0; i < iterations; ++i) {
    for (int draw = 0; draw < 16; ++draw) {
      acc += rng.UniformInt(1u << 20);
    }
    if constexpr (instrumented) {
      CHOBS_FLIGHT_EVENT(kCheckpoint, "bench_tick", i, iterations);
    }
  }
  const std::uint64_t stop = MonotonicNanos();
  bench::DoNotOptimize(acc);
  return static_cast<double>(stop - start);
}

Result<GateOutcome> Gate(int reps) {
  const std::uint64_t recorded_before = obs::FlightEventsRecorded();
  GateOutcome outcome{
      bench::RunPairedGate("BM_SampleLoop_Bare", TimeLoop<false>,
                           "BM_SampleLoop_DormantFlightEvent",
                           TimeLoop<true>, kBudget, reps),
      {}};
  if (obs::FlightEventsRecorded() != recorded_before) {
    return Status::Internal("the dormant macro recorded flight events");
  }
  return outcome;
}

}  // namespace flight

// --------------------------------------------------------------------------
// parallel: a loop of small ParallelForBlocks regions, dormant, against
// the same regions run by a bare replica of the pre-instrumentation
// fork-join path. With obs dormant the only additions on the real path
// are the requested-worker computation and one relaxed obs::Enabled()
// load per region, so this bounds the per-region tax at the worst
// realistic density — many tiny regions back to back.
// --------------------------------------------------------------------------
namespace parallel {

constexpr double kBudget = 0.02;

/// Region shape: small enough that the grain clamp keeps the region
/// inline on the caller (so the gate times the dispatch tax, not thread
/// spawns), large enough that fn() does real work per block.
constexpr std::size_t kItems = 2048;
constexpr std::size_t kBlock = 256;

/// Bare replica of the pre-instrumentation ParallelForBlocks, kept
/// byte-for-byte comparable: same worker-count clamps, same atomic
/// cursor, same std::function indirection, same block boundaries. What
/// it lacks is exactly what the telemetry added — the obs::Enabled()
/// branch (and, when live, the instrumented drain).
void BareParallelForBlocks(
    std::size_t n, std::size_t block_size, int threads,
    const std::function<void(std::size_t block, std::size_t begin,
                             std::size_t end)>& fn) {
  if (n == 0 || block_size == 0) return;
  const std::size_t blocks = NumBlocks(n, block_size);
  std::size_t workers =
      std::min(static_cast<std::size_t>(EffectiveThreads(threads)), blocks);
  // Cached like the production path, so the measured delta is the
  // telemetry branch and not the hardware_concurrency lookup.
  static const std::size_t hw = [] {
    const unsigned n_cpus = std::thread::hardware_concurrency();
    return n_cpus == 0 ? std::size_t{1} : static_cast<std::size_t>(n_cpus);
  }();
  workers = std::min(workers, hw);
  workers = std::min(workers, std::max<std::size_t>(1, n / 1024));
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&] {
    for (std::size_t block = cursor.fetch_add(1, std::memory_order_relaxed);
         block < blocks;
         block = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t begin = block * block_size;
      const std::size_t end = std::min(n, begin + block_size);
      fn(block, begin, end);
    }
  };
  if (workers <= 1) {
    drain();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

/// Times `iterations` back-to-back regions. `real` dispatches through
/// the production ParallelForBlocks (obs dormant); otherwise the bare
/// replica runs the identical blocks.
template <bool real>
double TimeLoop(std::size_t iterations) {
  std::uint64_t acc = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)> fn =
      [&acc](std::size_t block, std::size_t begin, std::size_t end) {
        std::uint64_t sum = block;
        for (std::size_t i = begin; i < end; ++i) {
          sum += i * 2654435761u;
        }
        acc += sum;
      };
  const std::uint64_t start = MonotonicNanos();
  for (std::size_t i = 0; i < iterations; ++i) {
    if constexpr (real) {
      ParallelForBlocks(kItems, kBlock, 1, fn);
    } else {
      BareParallelForBlocks(kItems, kBlock, 1, fn);
    }
  }
  const std::uint64_t stop = MonotonicNanos();
  bench::DoNotOptimize(acc);
  return static_cast<double>(stop - start);
}

Result<GateOutcome> Gate(int reps) {
  const std::uint64_t recorded_before = obs::ParallelRegionsRecorded();
  GateOutcome outcome{
      bench::RunPairedGate("BM_RegionLoop_Bare", TimeLoop<false>,
                           "BM_RegionLoop_DormantParallelForBlocks",
                           TimeLoop<true>, kBudget, reps),
      {}};
  if (obs::ParallelRegionsRecorded() != recorded_before) {
    return Status::Internal("dormant regions recorded telemetry");
  }
  return outcome;
}

}  // namespace parallel

// --------------------------------------------------------------------------
// hw: a sampling-style inner loop with one CHOBS_SPAN per iteration,
// dormant, against the same loop with no span. With obs dormant the span
// constructor is a single relaxed Enabled() load and the destructor an
// active() check — the hw engine adds one more relaxed HwCountersActive()
// load on each live open/close, and none at all on the dormant path. The
// per-span workload (kDrawsPerSpan RNG draws, ~2 us) is two to three
// orders of magnitude below the shortest span any tool opens, so the
// ratio over-states every real placement while staying large enough that
// the ~10 ns dormant-span constant doesn't swamp the budget with noise.
// --------------------------------------------------------------------------
namespace hw {

constexpr double kBudget = 0.02;

/// RNG draws per span. Sized so a span wraps ~2 us of work — far denser
/// than any real call site (spans wrap phases, not worlds), yet enough
/// work that the fixed ~10 ns dormant-span cost reads as a percentage a
/// 2% budget can meaningfully gate instead of as ratio noise.
constexpr int kDrawsPerSpan = 512;

/// A world-sampling stand-in: per iteration, a burst of RNG draws and
/// an accumulate — comparable work to flipping the edges of a small
/// world. `instrumented` opens one dormant span per iteration.
template <bool instrumented>
double TimeLoop(std::size_t iterations) {
  Rng rng(kSeed);
  std::uint64_t acc = 0;
  const std::uint64_t start = MonotonicNanos();
  for (std::size_t i = 0; i < iterations; ++i) {
    if constexpr (instrumented) {
      CHOBS_SPAN(span, "bench/hw_tick");
      for (int draw = 0; draw < kDrawsPerSpan; ++draw) {
        acc += rng.UniformInt(1u << 20);
      }
    } else {
      for (int draw = 0; draw < kDrawsPerSpan; ++draw) {
        acc += rng.UniformInt(1u << 20);
      }
    }
  }
  const std::uint64_t stop = MonotonicNanos();
  bench::DoNotOptimize(acc);
  return static_cast<double>(stop - start);
}

Result<GateOutcome> Gate(int reps) {
  const std::uint64_t attributed_before = obs::HwSpansAttributed();
  GateOutcome outcome{
      bench::RunPairedGate("BM_SpanLoop_Bare", TimeLoop<false>,
                           "BM_SpanLoop_DormantHwSpan", TimeLoop<true>,
                           kBudget, reps),
      {}};
  if (obs::HwSpansAttributed() != attributed_before) {
    return Status::Internal("dormant spans attributed hw counters");
  }
  return outcome;
}

}  // namespace hw

// --------------------------------------------------------------------------
// heap_dormant / heap_active: one malloc-shaped loop. Each iteration
// interleaves one allocate-touch-free of a small block (16..512 B
// rotation) with a burst of RNG draws standing in for the work real code
// does between allocations. One allocation per ~500 ns is still two
// orders of magnitude denser than any chameleon phase (the er-2k MC run
// allocates ~once per 80 us), so the ratios over-state production cost
// while keeping the per-allocation hook tax (a few ns) readable against
// the budget instead of drowned in a raw ~11 ns malloc/free pair.
//
// heap_dormant times ::operator new/delete (per-thread counters + the
// sampler's one relaxed load + countdown check) against raw malloc/free:
// the tax every build pays. heap_active times the same loop with the
// sampler running at the default 1/512 KiB rate against the bare loop:
// the tax of --heap_profile runs.
// --------------------------------------------------------------------------
namespace heap {

constexpr double kDormantBudget = 0.02;
constexpr double kActiveBudget = 0.05;

/// Block sizes rotated per iteration. Small on purpose: the hook cost
/// is per allocation, so small blocks give the most conservative ratio.
constexpr std::size_t kSizes[] = {16, 48, 128, 512};
constexpr std::size_t kSizeCount = sizeof(kSizes) / sizeof(kSizes[0]);

/// RNG draws between allocations (~500 ns of work per alloc).
constexpr int kDrawsPerAlloc = 128;

/// One timed pass: `iterations` rounds of draw-burst + allocate-touch-
/// free over the size rotation. `instrumented` routes through the
/// replaced global operator new/delete (counters + sampler hook); the
/// bare arm calls malloc/free directly, bypassing both.
template <bool instrumented>
double TimeLoop(std::size_t iterations) {
  Rng rng(kSeed);
  std::uint64_t acc = 0;
  const std::uint64_t start = MonotonicNanos();
  for (std::size_t i = 0; i < iterations; ++i) {
    for (int draw = 0; draw < kDrawsPerAlloc; ++draw) {
      acc += rng.UniformInt(1u << 20);
    }
    const std::size_t size = kSizes[i % kSizeCount];
    void* ptr = instrumented ? ::operator new(size) : std::malloc(size);
    // Touch the block so the allocation cannot be elided or deferred.
    *static_cast<volatile char*>(ptr) = static_cast<char>(i);
    bench::DoNotOptimize(ptr);
    if (instrumented) {
      ::operator delete(ptr);
    } else {
      std::free(ptr);
    }
  }
  bench::DoNotOptimize(acc);
  return static_cast<double>(MonotonicNanos() - start);
}

Result<GateOutcome> DormantGate(int reps) {
  const std::uint64_t samples_before = obs::HeapSamplesRecorded();
  GateOutcome outcome{
      bench::RunPairedGate("BM_AllocLoop_Bare", TimeLoop<false>,
                           "BM_AllocLoop_DormantHook", TimeLoop<true>,
                           kDormantBudget, reps),
      {}};
  if (obs::HeapSamplesRecorded() != samples_before) {
    return Status::Internal("the dormant hook sampled allocations");
  }
  return outcome;
}

Result<GateOutcome> ActiveGate(int reps) {
  if (Status s = obs::StartHeapProfiler(obs::HeapProfilerOptions{});
      !s.ok()) {
    return GateOutcome{{}, "heap profiler unavailable: " + s.ToString()};
  }
  GateOutcome outcome{
      bench::RunPairedGate("BM_AllocLoop_ActiveBare", TimeLoop<false>,
                           "BM_AllocLoop_ActiveSampler", TimeLoop<true>,
                           kActiveBudget, reps),
      {}};
  const std::uint64_t samples = obs::HeapSamplesRecorded();
  CHAMELEON_RETURN_IF_ERROR(obs::StopHeapProfiler().status());
  if (samples == 0) {
    return Status::Internal(
        "the active sampler recorded no heap samples, so the measurement "
        "is vacuous");
  }
  std::fprintf(stderr, "heap_active: %llu heap samples\n",
               static_cast<unsigned long long>(samples));
  return outcome;
}

}  // namespace heap

CHAMELEON_GATE(obs_dormant, Dormant(obs_dormant::Gate));
CHAMELEON_GATE(profiler, Dormant(profiler::Gate));
CHAMELEON_GATE(flight, Dormant(flight::Gate));
CHAMELEON_GATE(parallel, Dormant(parallel::Gate));
CHAMELEON_GATE(hw, Dormant(hw::Gate));
CHAMELEON_GATE(heap_dormant, Dormant(heap::DormantGate));
CHAMELEON_GATE(heap_active, Dormant(heap::ActiveGate));

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) {
  return chameleon::bench::Main(argc, argv, "overhead");
}
