#include "chameleon/obs/parallel_stats.h"

#include <algorithm>
#include <atomic>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"

namespace chameleon::obs {
namespace {

std::atomic<std::uint64_t> g_regions_recorded{0};

}  // namespace

std::uint64_t ParallelRegionStats::BusyTotalNanos() const {
  std::uint64_t total = 0;
  for (const ParallelWorkerSample& w : per_worker) total += w.busy_ns;
  return total;
}

std::uint64_t ParallelRegionStats::IdleTotalNanos() const {
  std::uint64_t total = 0;
  for (const ParallelWorkerSample& w : per_worker) {
    if (wall_ns > w.busy_ns) total += wall_ns - w.busy_ns;
  }
  return total;
}

double ParallelRegionStats::Imbalance() const {
  if (per_worker.size() <= 1) return 1.0;
  std::uint64_t max_busy = 0;
  for (const ParallelWorkerSample& w : per_worker) {
    max_busy = std::max(max_busy, w.busy_ns);
  }
  const std::uint64_t total = BusyTotalNanos();
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(per_worker.size());
  return static_cast<double>(max_busy) / mean;
}

double ParallelRegionStats::Speedup() const {
  if (wall_ns == 0) return 1.0;
  return static_cast<double>(BusyTotalNanos()) / static_cast<double>(wall_ns);
}

double ParallelRegionStats::Efficiency() const {
  if (per_worker.empty()) return 1.0;
  return Speedup() / static_cast<double>(per_worker.size());
}

std::string FormatParallelRegionRecord(const ParallelRegionStats& stats) {
  Record record("parallel_region");
  record.Str("name", stats.name)
      .Int("items", stats.items)
      .Int("block_size", stats.block_size)
      .Int("blocks", stats.blocks)
      .Int("requested", stats.requested)
      .Int("workers", stats.workers)
      .Int("wall_ns", stats.wall_ns)
      .Int("spawn_ns", stats.spawn_ns)
      .Int("join_ns", stats.join_ns);
  record.Array("busy_ns");
  for (const auto& worker : stats.per_worker) record.Int(worker.busy_ns);
  record.End().Array("cpu_ns");
  for (const auto& worker : stats.per_worker) record.Int(worker.cpu_ns);
  record.End().Array("blocks_claimed");
  for (const auto& worker : stats.per_worker) record.Int(worker.blocks);
  record.End()
      .Int("busy_total_ns", stats.BusyTotalNanos())
      .Int("idle_total_ns", stats.IdleTotalNanos())
      .Num("imbalance", stats.Imbalance())
      .Num("speedup", stats.Speedup())
      .Num("efficiency", stats.Efficiency());
  return record.Finish();
}

void RecordParallelRegion(const ParallelRegionStats& stats) {
  g_regions_recorded.fetch_add(1, std::memory_order_relaxed);

  if (RecordSink* sink = GlobalSink(); sink != nullptr) {
    sink->Write(FormatParallelRegionRecord(stats));
  }
}

std::uint64_t ParallelRegionsRecorded() {
  return g_regions_recorded.load(std::memory_order_relaxed);
}

}  // namespace chameleon::obs
