// Sampling heap profiler (ISSUE 9): the memory leg of the profiling
// triad (CPU profiler, hardware counters, heap). The replacement
// operator new/delete in alloc_stats.cc feed every allocation through a
// thread-local byte countdown; when the countdown crosses zero the
// allocation is sampled — frame-pointer stack capture plus the
// innermost TraceSpan path id — and charged to an interned allocation
// site with the standard Poisson-sampling unbiased weights
// (p = 1 - exp(-size/rate), weight_bytes = size/p, weight_count = 1/p;
// the tcmalloc/gperftools heap-profile approach). Sampled blocks live
// in a fixed-capacity pointer map so the matching operator delete
// decrements its site, which is what makes live/peak/leak-delta
// reporting possible at a ~512 KiB default sampling rate instead of a
// per-allocation overhead.
//
// Outputs, all rendered from the same site table:
//   * `heap_profile` JSONL records (one per top site: span path, frames,
//     estimated live/peak/cumulative bytes and counts, leak delta,
//     allowlist verdict) plus one `heap_timeline` record (sampled live
//     bytes + exact cumulative counters + RSS over time), flushed on
//     clean and signal exits via FinalizeRun;
//   * folded collapsed stacks weighted by cumulative bytes, written next
//     to the CPU profile.folded for flamegraph.pl / speedscope;
//   * `chameleon_obs_dump --heap` (top-N site and span-path tables).
//
// Hook safety rules (everything here is reachable from inside
// operator new):
//   * the dormant fast path is one relaxed atomic load; the active fast
//     path adds one thread-local integer subtract and branch;
//   * the slow path sets a thread-local recursion guard before touching
//     anything that allocates, so the sampler's own allocations refill
//     the countdown but are never themselves sampled;
//   * all registries live behind leaked mutexes (obs teardown doctrine)
//     and the emission path uses try_to_lock, never blocking a
//     crashing thread;
//   * under ASan/TSan the sampler refuses to start (the walker reads
//     raw stack words and the hooks run inside the allocator the
//     sanitizer interposes) and FinalizeRun emits exactly one
//     `heap_profiler_unavailable` record naming the reason.

#ifndef CHAMELEON_OBS_HEAP_PROFILER_H_
#define CHAMELEON_OBS_HEAP_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chameleon/util/status.h"

namespace chameleon {
namespace obs {

class RecordSink;

/// Default mean bytes between samples (--heap_sample_bytes).
inline constexpr std::uint64_t kDefaultHeapSampleBytes = 512 * 1024;

struct HeapProfilerOptions {
  /// Mean allocated bytes between samples. Smaller = more precise and
  /// more expensive; 0 is invalid.
  std::uint64_t sample_bytes = kDefaultHeapSampleBytes;
  /// Folded collapsed-stack output (cumulative-bytes weights), written
  /// when the profiler stops. Empty: not written.
  std::string folded_out;
  /// Minimum spacing between heap-timeline points. Points are taken
  /// lazily from span closes and EmitSnapshot — no dedicated timer
  /// thread — so the real spacing is at least this.
  std::uint64_t timeline_interval_nanos = 250'000'000;
};

/// One allocation site of the final report, already symbolized.
struct HeapSiteReport {
  std::string span_path;            ///< "" = outside any span
  std::vector<std::string> frames;  ///< innermost first
  std::uint64_t samples = 0;        ///< raw sampled allocations
  std::uint64_t cum_bytes = 0;      ///< estimated cumulative allocated
  std::uint64_t cum_allocs = 0;
  std::uint64_t live_bytes = 0;  ///< estimated live when the profiler stopped
  std::uint64_t live_allocs = 0;
  std::uint64_t peak_bytes = 0;  ///< estimated live at this site's own peak
  bool allowlisted = false;      ///< leak matches the intentional-leak list
};

/// One heap-timeline point.
struct HeapTimelinePoint {
  std::uint64_t mono_ns = 0;
  std::uint64_t live_bytes = 0;       ///< estimated sampled live bytes
  std::uint64_t cum_alloc_bytes = 0;  ///< exact, from the alloc counters
  std::uint64_t cum_allocs = 0;       ///< exact
  std::uint64_t rss_kb = 0;           ///< current RSS (/proc/self/statm)
};

struct HeapProfileReport {
  std::uint64_t sample_bytes = 0;
  double duration_ms = 0.0;
  std::uint64_t samples = 0;        ///< sampled allocations, all sites
  std::uint64_t dropped = 0;        ///< live-map-full sample drops
  std::uint64_t est_cum_bytes = 0;  ///< estimated cumulative allocated
  std::uint64_t est_cum_allocs = 0;
  std::uint64_t est_live_bytes = 0;   ///< estimated live at stop
  std::uint64_t est_peak_bytes = 0;   ///< estimated process-wide live peak
  std::uint64_t exact_cum_bytes = 0;  ///< exact counter total at stop
  std::uint64_t exact_cum_allocs = 0;
  std::vector<HeapSiteReport> sites;  ///< descending by cum_bytes
  std::vector<HeapTimelinePoint> timeline;
};

/// Starts the sampler. InvalidArgument when sample_bytes is 0;
/// FailedPrecondition when a sampler is already running or the build
/// runs under ASan/TSan (the reason is retained for the
/// heap_profiler_unavailable record); Unimplemented off Linux.
/// Independent of InitObservability — records are only emitted where a
/// global sink exists.
Status StartHeapProfiler(const HeapProfilerOptions& options);

/// Stops sampling, writes folded_out, and returns the report. Does NOT
/// emit JSONL records (FinalizeRun emits before stopping, like the hw
/// engine). FailedPrecondition when not running.
Result<HeapProfileReport> StopHeapProfiler();

/// True while allocations are being sampled. Relaxed atomic — this is
/// the operator-new fast path.
bool HeapProfilerActive();

/// Why the sampler is inactive: "heap profiling not requested
/// (--heap_profile)" by default, the failure reason after a refused
/// start, "" while active.
std::string HeapProfilerUnavailableReason();

/// Builds the report from the current site table without stopping, so
/// tests can read live and peak bytes mid-run. Empty report when
/// inactive. Symbolizes frames only when `symbolize` is set.
HeapProfileReport SnapshotHeapProfile(bool symbolize);

/// Writes the `heap_profile` records (top sites) and the one
/// `heap_timeline` record to `sink`. Safe on the FinalizeRun path:
/// takes the site mutex with try_to_lock and skips rather than blocks.
/// No-op when the sampler is inactive.
void EmitHeapProfileRecords(RecordSink* sink);

/// Takes a heap-timeline point when at least the configured interval
/// passed since the last one. Called from span close and EmitSnapshot;
/// one relaxed load + compare when it is not yet time.
void HeapProfilerMaybeSampleTimeline();

/// Total sampled allocations since start — guard counter for the
/// overhead bench (dormant runs must not sample).
std::uint64_t HeapSamplesRecorded();

/// True once EmitHeapProfileRecords reached a sink for the current
/// capture. FinalizeRun's guard: a stream never carries both real
/// heap_profile records and a heap_profiler_unavailable record.
bool HeapRecordsEmitted();

/// Frame/span-path substrings whose leaked-at-exit sites are reported
/// as intentional (`"allowlisted":true`): the obs singletons this
/// library leaks by design (flight-recorder rings, metric shards,
/// interned paths). Replaces the default list; tests use it.
void SetHeapLeakAllowlistForTesting(std::vector<std::string> substrings);

}  // namespace obs
}  // namespace chameleon

#endif  // CHAMELEON_OBS_HEAP_PROFILER_H_
