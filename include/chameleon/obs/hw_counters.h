// Hardware-counter telemetry (ISSUE 8): a perf_event_open(2) engine
// that opens one per-thread counter group — cycles, instructions,
// cache-references, cache-misses, branch-misses, stalled-cycles-backend
// where available, task-clock — group-reads it with time_enabled /
// time_running multiplexing correction, and attributes deltas to the
// innermost TraceSpan. Span records gain cycles/instructions/ipc/
// cache_miss_rate/branch_miss_rate fields; per-span-path aggregates
// flow into `hw_counters` JSONL records, a /statusz table, and
// chameleon_-prefixed /metricsz series. A toplev-lite classifier labels
// each path frontend-bound / backend-memory-bound / compute-bound /
// balanced so obs_dump --hw can diagnose poor speedup instead of merely
// measuring it.
//
// Graceful degradation is the contract: perf_event_paranoid, seccomp,
// or a missing PMU (typical CI containers) leave the engine inactive
// with a single `hw_counters_unavailable` record while every tool keeps
// working. Three backends:
//   kPerf     — real PMU groups via perf_event_open.
//   kEmulated — deterministic counters synthesized from per-thread CPU
//               time (CHAMELEON_HW_COUNTERS=emulate); exercises the
//               full attribution pipeline on PMU-less machines.
//   kNone     — unavailable; CHAMELEON_HW_COUNTERS=off forces it, which
//               is how CI simulates a paranoid kernel.
//
// Everything here follows the obs teardown doctrine: leaked mutexes,
// try_to_lock on async-signal-adjacent emission paths, and no
// destructor-ordering hazards at process exit.

#ifndef CHAMELEON_OBS_HW_COUNTERS_H_
#define CHAMELEON_OBS_HW_COUNTERS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace chameleon {
namespace obs {

class RecordSink;

/// Which engine is live. kNone either means StartHwCounters was never
/// called, counters were disabled, or the probe failed (see
/// HwCountersUnavailableReason for which).
enum class HwBackend { kNone, kPerf, kEmulated };

/// Raw snapshot of one thread's counter group, as read (no multiplexing
/// correction applied). `valid` is false when the calling thread has no
/// open group and registration failed.
struct HwCounterSample {
  bool valid = false;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t stalled_backend = 0;
  std::uint64_t task_clock_ns = 0;
  // Which optional siblings the group actually contains; required
  // events (cycles, instructions) are implied by `valid`.
  bool has_cache = false;
  bool has_branch = false;
  bool has_stalled = false;
  bool has_task_clock = false;
};

/// Multiplexing-corrected counter deltas over one span (or one parallel
/// worker's drain). `scale` is enabled/running over the interval — 1.0
/// when the group was never descheduled from the PMU.
struct HwCounterDelta {
  bool valid = false;
  double scale = 1.0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t stalled_backend = 0;
  std::uint64_t task_clock_ns = 0;
  bool has_cache = false;
  bool has_branch = false;
  bool has_stalled = false;

  double Ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double CacheMissRate() const {
    return cache_references > 0 ? static_cast<double>(cache_misses) /
                                      static_cast<double>(cache_references)
                                : 0.0;
  }
  double BranchMissRate() const {
    return instructions > 0 ? static_cast<double>(branch_misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
  }
};

/// The multiplexing correction: when the kernel rotated this group off
/// the PMU (more groups than counter slots), time_running < time_enabled
/// and the raw delta undercounts by exactly that duty cycle. Scales
/// `raw_delta` by enabled/running, rounding to nearest. running == 0
/// yields 0 (the group never counted); running >= enabled returns the
/// raw delta untouched. Pure so the math is unit-testable without a PMU.
std::uint64_t ScaleMultiplexed(std::uint64_t raw_delta,
                               std::uint64_t enabled_delta,
                               std::uint64_t running_delta);

/// Subtracts `open` from `close` and applies the multiplexing
/// correction to every counter. Invalid if either sample is invalid.
HwCounterDelta ComputeHwDelta(const HwCounterSample& open,
                              const HwCounterSample& close);

/// Starts the engine: resolves the backend (CHAMELEON_HW_COUNTERS env:
/// off/0/false → disabled, emulate → emulated, unset/auto → probe
/// perf_event_open), probes by registering the calling thread, and
/// resets the per-path aggregates. When the env says off, or the probe
/// fails, the engine stays inactive and the reason is retained; the
/// FinalizeRun emits the single hw_counters_unavailable record for runs
/// where counters never came up. Returns true when counters are live.
bool StartHwCounters();

/// Stops the engine: flips the active flag so no new samples open
/// groups. Per-thread fds close when their threads exit (TLS
/// destructor); the main thread's close here. Aggregates survive until
/// ResetHwPathAggregates so FinalizeRun can still emit them.
void StopHwCounters();

/// True when counter groups are live and spans should sample. Relaxed
/// atomic — this sits on the span open/close fast path.
bool HwCountersActive();

/// The live backend (kNone when inactive).
HwBackend HwCountersBackend();

/// Human-readable reason the engine is inactive ("" when active or
/// never started). Errno-mapped for perf failures: EACCES/EPERM →
/// perf_event_paranoid/seccomp, ENOENT/ENODEV → no PMU.
std::string HwCountersUnavailableReason();

/// Samples the calling thread's counter group, lazily opening it on
/// first use (worker threads spawned by ParallelForBlocks register
/// themselves this way). Returns false (and an invalid sample) when the
/// engine is inactive or the open failed.
bool SampleHwCounters(HwCounterSample* sample);

/// Per-span-path rollup of corrected deltas (path already stripped of
/// loop indices by StripPathIndices).
struct HwPathAggregate {
  std::string path;
  std::uint64_t spans = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t stalled_backend = 0;
  std::uint64_t task_clock_ns = 0;

  double Ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double CacheMissRate() const {
    return cache_references > 0 ? static_cast<double>(cache_misses) /
                                      static_cast<double>(cache_references)
                                : 0.0;
  }
  double BranchMissRate() const {
    return instructions > 0 ? static_cast<double>(branch_misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
  }
};

/// Folds one corrected delta into the aggregate for `stripped_path` and
/// bumps the hw/<path>/... counter metrics. Called from ~TraceSpan and
/// the parallel-region recorder.
void AccumulateHwPath(const std::string& stripped_path,
                      const HwCounterDelta& delta);

/// Snapshot of every path aggregate, sorted by path.
std::vector<HwPathAggregate> HwPathAggregates();

/// Clears the aggregates (tests reset between cases).
void ResetHwPathAggregates();

/// Total spans that contributed a valid delta — guard counter for the
/// dormant-overhead bench.
std::uint64_t HwSpansAttributed();

/// Toplev-lite classification of a path aggregate. Thresholds
/// (documented in DESIGN.md):
///   kUnknown            cycles == 0 or instructions == 0
///   kBackendMemoryBound (cache_miss_rate > 0.20 && ipc < 1.0) or
///                       (stalled_backend/cycles > 0.5 && ipc < 1.0)
///   kFrontendBound      branch_miss_rate > 0.02 && ipc < 1.0
///   kComputeBound       ipc >= 1.5
///   kBalanced           otherwise
enum class HwBottleneck {
  kUnknown,
  kFrontendBound,
  kBackendMemoryBound,
  kComputeBound,
  kBalanced,
};

const char* HwBottleneckName(HwBottleneck b);
HwBottleneck ClassifyHwBottleneck(const HwPathAggregate& agg);

/// Formats the `hw_counters` JSONL record for one path aggregate —
/// exposed so tests can pin the schema.
std::string FormatHwCounterRecord(const HwPathAggregate& agg,
                                  HwBackend backend);

/// Writes one `hw_counters` record per non-empty path aggregate to
/// `sink`. Safe on the FinalizeRun path: takes the aggregate mutex with
/// try_to_lock and skips (never blocks) if a crashing thread holds it.
void EmitHwCounterRecords(RecordSink* sink);

}  // namespace obs
}  // namespace chameleon

#endif  // CHAMELEON_OBS_HW_COUNTERS_H_
