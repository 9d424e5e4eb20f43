#include "chameleon/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "chameleon/obs/alloc_stats.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/parallel_stats.h"
#include "chameleon/util/timer.h"

namespace chameleon {
namespace {

std::size_t HardwareConcurrency() {
  // glibc re-reads sysfs on every std::thread::hardware_concurrency()
  // call (~microseconds) — cache it, the core count does not change
  // under us in any supported deployment.
  static const std::size_t cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
  }();
  return cached;
}

/// Minimum work per spawned worker, in unit-cost items. Spawning a
/// thread costs on the order of 100 µs; below this grain the fan-out tax
/// exceeds any parallel win (the BM_ObfVerifyEr2k8t regression: 7
/// spawned workers for a 2000-vertex verify on one core ran ~2x slower
/// than serial).
constexpr std::size_t kMinWorkPerWorker = 1024;

/// Instrumented fork-join path, taken only while observability is live.
/// Identical block boundaries, claim order semantics, and worker count
/// as the plain path — the only additions are MonotonicNanos() pairs
/// around each fn() call and per-worker accumulators, none of which
/// influence which (block, begin, end) triples `fn` sees. The caller
/// thread is worker 0; spawned threads are 1..workers-1. Spawned workers
/// run under the caller's span path id, and after the join their CPU
/// time and allocations are folded into the spans open on the caller.
void RunInstrumented(
    std::size_t n, std::size_t block_size, std::size_t blocks,
    std::size_t requested, std::size_t workers,
    const std::function<void(std::size_t block, std::size_t begin,
                             std::size_t end)>& fn) {
  const std::uint32_t span_id = obs::CurrentSpanPathId();
  obs::ParallelRegionStats stats;
  stats.name = obs::SpanPathForId(span_id);
  if (stats.name.empty()) stats.name = "(no_span)";
  stats.items = n;
  stats.block_size = block_size;
  stats.blocks = blocks;
  stats.requested = requested;
  stats.workers = workers;
  stats.per_worker.resize(workers);

  std::atomic<std::size_t> cursor{0};
  const auto drain = [&](std::size_t worker) {
    if (worker != 0) obs::AdoptSpanPathId(span_id);
    obs::ParallelWorkerSample& sample = stats.per_worker[worker];
    const std::uint64_t cpu_open = obs::ThreadCpuNanos();
    const obs::AllocStats alloc_open = obs::ThreadAllocStats();
    for (std::size_t block = cursor.fetch_add(1, std::memory_order_relaxed);
         block < blocks;
         block = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t begin = block * block_size;
      const std::size_t end = std::min(n, begin + block_size);
      const std::uint64_t t0 = MonotonicNanos();
      fn(block, begin, end);
      sample.busy_ns += MonotonicNanos() - t0;
      ++sample.blocks;
    }
    const obs::AllocStats alloc_close = obs::ThreadAllocStats();
    sample.cpu_ns = obs::ThreadCpuNanos() - cpu_open;
    sample.allocs = alloc_close.allocs - alloc_open.allocs;
    sample.alloc_bytes = alloc_close.alloc_bytes - alloc_open.alloc_bytes;
  };

  const std::uint64_t region_start = MonotonicNanos();
  if (workers <= 1) {
    drain(0);
    stats.wall_ns = MonotonicNanos() - region_start;
    obs::RecordParallelRegion(stats);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain, w);
  stats.spawn_ns = MonotonicNanos() - region_start;
  drain(0);
  const std::uint64_t join_start = MonotonicNanos();
  for (std::thread& t : pool) t.join();
  const std::uint64_t region_end = MonotonicNanos();
  stats.join_ns = region_end - join_start;
  stats.wall_ns = region_end - region_start;
  obs::ParallelWorkerSample spawned;
  for (std::size_t w = 1; w < workers; ++w) {
    spawned.cpu_ns += stats.per_worker[w].cpu_ns;
    spawned.allocs += stats.per_worker[w].allocs;
    spawned.alloc_bytes += stats.per_worker[w].alloc_bytes;
  }
  obs::FoldIntoOpenSpans(spawned.cpu_ns, spawned.allocs, spawned.alloc_bytes);
  obs::RecordParallelRegion(stats);
}

/// Process default for `threads < 1` requests; 0 = hardware concurrency.
std::atomic<int> g_default_threads{0};

}  // namespace

int EffectiveThreads(int requested) {
  if (requested >= 1) return requested;
  const int fallback = g_default_threads.load(std::memory_order_relaxed);
  if (fallback >= 1) return fallback;
  return static_cast<int>(HardwareConcurrency());
}

void SetDefaultThreads(int threads) {
  g_default_threads.store(threads < 1 ? 0 : threads,
                          std::memory_order_relaxed);
}

std::size_t ParallelWorkers(std::size_t n, std::size_t block_size,
                            int threads, std::size_t item_cost) {
  if (n == 0 || block_size == 0) return 0;
  // Worker count is a pure scheduling choice: block boundaries depend
  // only on (n, block_size), so clamping keeps results bit-identical.
  // Clamp to (a) the block count, (b) real cores — an explicit
  // --threads above hardware_concurrency only adds contention — and
  // (c) the minimum grain, so tiny inputs run inline on the caller.
  const std::size_t requested =
      static_cast<std::size_t>(EffectiveThreads(threads));
  std::size_t workers = std::min(requested, NumBlocks(n, block_size));
  workers = std::min(workers, HardwareConcurrency());
  const std::size_t work =
      item_cost != 0 && n > SIZE_MAX / item_cost ? SIZE_MAX : n * item_cost;
  return std::min(workers,
                  std::max<std::size_t>(1, work / kMinWorkPerWorker));
}

void ParallelForBlocks(
    std::size_t n, std::size_t block_size, int threads,
    const std::function<void(std::size_t block, std::size_t begin,
                             std::size_t end)>& fn,
    std::size_t item_cost) {
  if (n == 0 || block_size == 0) return;
  const std::size_t blocks = NumBlocks(n, block_size);
  const std::size_t workers =
      ParallelWorkers(n, block_size, threads, item_cost);

  if (obs::Enabled()) {
    const auto requested = static_cast<std::size_t>(EffectiveThreads(threads));
    RunInstrumented(n, block_size, blocks, requested, workers, fn);
    return;
  }

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

}  // namespace chameleon
