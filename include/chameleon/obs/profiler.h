#ifndef CHAMELEON_OBS_PROFILER_H_
#define CHAMELEON_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/util/status.h"

/// \file profiler.h
/// In-process, span-attributed sampling CPU profiler.
///
/// Each registered thread gets a POSIX interval timer on its
/// CLOCK_THREAD_CPUTIME_ID, so a thread is sampled (SIGPROF, delivered to
/// that thread via SIGEV_THREAD_ID) once per 1/hz seconds of CPU it
/// actually burns — idle threads cost nothing and never appear. The
/// async-signal-safe handler captures a frame-pointer stack walk plus the
/// thread's active TraceSpan path id (one TLS word, see
/// CurrentSpanPathId()) into a lock-free per-thread SPSC ring buffer. A
/// drainer thread aggregates samples every ~50 ms; symbol resolution
/// (dladdr + demangling) happens only at report time, never in the
/// handler.
///
/// Handler safety rules (the whole design falls out of these):
///   * no allocation, no locks, no strings, no TLS with dynamic init;
///   * span attribution is one thread-local word (the interned path id);
///   * the stack walk validates every frame pointer against the thread's
///     stack bounds (recorded at registration) before dereferencing;
///   * a full ring drops the sample and bumps a relaxed atomic counter —
///     dropped samples are accounted, never silently lost.
///
/// Threads register on their first TraceSpan open (plus the thread that
/// calls StartGlobalProfiler), so profiling requires live observability:
/// with a dormant obs runtime no spans open and nothing is sampled. Off
/// Linux everything here is a no-op and Start reports Unimplemented.
///
/// Outputs, all rendered from the same (span path × stack) aggregate:
///   * folded collapsed stacks ("a;b;c 42" lines) for flamegraph.pl /
///     speedscope, with the active span path spliced in as synthetic root
///     frames so flames read `reliability;two_terminal;sample_worlds;...`;
///   * one "profile" JSONL record in the global sink with per-span
///     self-CPU sample counts;
///   * `chameleon_obs_dump --flame` (top-N span table from the record).

namespace chameleon::obs {

/// Per-thread SPSC ring size in samples. A full ring drops samples (the
/// handler never blocks) and the loss shows up in ProfileReport::dropped.
/// Exposed so tests can size overflow workloads.
inline constexpr std::uint32_t kProfilerRingCapacity = 512;

struct ProfilerOptions {
  /// Per-thread sampling frequency in Hz (samples per CPU-second).
  int hz = 99;
  /// Folded collapsed-stack output path, written on Stop (and by the obs
  /// termination hooks if the run dies mid-capture). Empty: not written.
  std::string folded_out;
  /// Write the "profile" JSONL record to the global sink on Stop.
  bool emit_record = true;
  /// Drainer wake interval. The default keeps a 99 Hz stream far from
  /// ring overflow; tests shrink the ring pressure window by raising it.
  int drain_interval_millis = 50;
};

/// One (span path × call stack) cell of the final aggregate, already
/// symbolized. `frames` is root-first: span path components, then stack.
struct ProfileStack {
  std::vector<std::string> frames;
  std::uint64_t samples = 0;
};

struct ProfileReport {
  std::uint64_t samples = 0;  ///< aggregated (excludes dropped)
  std::uint64_t dropped = 0;  ///< ring-overflow losses, all threads
  double duration_ms = 0.0;   ///< wall time the profiler ran
  int hz = 0;
  std::vector<ProfileStack> stacks;  ///< descending by samples
  /// Per-span self-CPU sample counts (samples whose innermost open span
  /// was this path), descending. "" = samples outside any span.
  std::vector<std::pair<std::string, std::uint64_t>> span_samples;
};

/// Renders `report.stacks` as folded collapsed-stack text, one
/// "frame;frame;... count\n" line per distinct stack. Frame names are
/// sanitized (';' and ' ' never appear inside a frame).
std::string FoldedText(const ProfileReport& report);

/// Starts the process-global profiler. InvalidArgument when `hz` is out
/// of [1, 10000]; FailedPrecondition when a profiler is already running;
/// Unimplemented off Linux; Internal on timer/sigaction failures.
Status StartGlobalProfiler(const ProfilerOptions& options);

/// Stops the profiler, writes `folded_out`, emits the "profile" record,
/// and returns the aggregate. FailedPrecondition when not running.
Result<ProfileReport> StopGlobalProfiler();

bool ProfilerRunning();

/// Registers the calling thread with the profiler (idempotent, one TLS
/// check after the first call). Called from TraceSpan open; a thread
/// that never opens a span is never sampled.
void ProfilerRegisterCurrentThread();

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_PROFILER_H_
