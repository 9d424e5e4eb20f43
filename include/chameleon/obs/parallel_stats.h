#ifndef CHAMELEON_OBS_PARALLEL_STATS_H_
#define CHAMELEON_OBS_PARALLEL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file parallel_stats.h
/// Parallel-efficiency telemetry for ParallelForBlocks. Every instrumented
/// fork-join region emits one `parallel_region` JSONL record carrying the
/// clamp decisions (workers requested vs. spawned), the block/grain
/// geometry, per-worker busy/CPU/idle time and blocks claimed, the imbalance
/// ratio, the spawn+join overhead, and the realized speedup vs. the
/// busy-time sum — so "the verifier doesn't scale" decomposes into
/// *which* of serial fraction, load imbalance, or fan-out overhead is to
/// blame. The instrumentation only times the existing block claims; block
/// boundaries and merge order are untouched, so the bit-identical-across-
/// worker-counts guarantee survives. obs_dump's "parallel regions" table
/// sums the records per call site.

namespace chameleon::obs {

/// One worker's share of a completed region. Worker 0 is the calling
/// thread; workers 1..n-1 were spawned.
struct ParallelWorkerSample {
  std::uint64_t busy_ns = 0;  ///< time spent inside fn() across blocks
  std::uint64_t blocks = 0;   ///< blocks this worker claimed
  /// Thread CPU time and heap allocations over this worker's drain; a
  /// spawned worker's are folded into the caller's open spans.
  std::uint64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

/// A fully measured region, produced by ParallelForBlocks after join.
struct ParallelRegionStats {
  /// Innermost open span path at region entry; "(no_span)" when none.
  std::string name;
  std::uint64_t items = 0;
  std::uint64_t block_size = 0;
  std::uint64_t blocks = 0;
  /// Worker count after EffectiveThreads() but before the block-count /
  /// hardware / minimum-grain clamps — what the caller asked for.
  std::uint64_t requested = 0;
  /// Worker count after all clamps (includes the calling thread).
  std::uint64_t workers = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t spawn_ns = 0;  ///< std::thread construction, 0 when inline
  std::uint64_t join_ns = 0;   ///< caller-drained -> last worker joined
  std::vector<ParallelWorkerSample> per_worker;  ///< size == workers

  std::uint64_t BusyTotalNanos() const;
  /// Sum over workers of max(0, wall - busy): time sitting in the claim
  /// loop, waiting to start, or waiting for the join.
  std::uint64_t IdleTotalNanos() const;
  /// max(busy) / mean(busy); 1.0 for <= 1 worker or an all-idle region.
  double Imbalance() const;
  /// BusyTotal / wall — the realized speedup over a serial run of the
  /// same work (<= workers by construction).
  double Speedup() const;
  /// Speedup / workers, in (0, 1] modulo timer jitter.
  double Efficiency() const;
};

/// Renders the `parallel_region` JSONL record for `stats` (no sink
/// interaction; exposed for tests).
std::string FormatParallelRegionRecord(const ParallelRegionStats& stats);

/// Emits the record to the global sink (when one is configured).
/// ParallelForBlocks calls this after join; it is safe with
/// observability half-configured (null sink).
void RecordParallelRegion(const ParallelRegionStats& stats);

/// Total `parallel_region` records ever recorded (relaxed counter).
std::uint64_t ParallelRegionsRecorded();

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_PARALLEL_STATS_H_
