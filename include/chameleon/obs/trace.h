#ifndef CHAMELEON_OBS_TRACE_H_
#define CHAMELEON_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chameleon/obs/sink.h"
#include "chameleon/util/common.h"
#include "chameleon/util/timer.h"

/// \file trace.h
/// Hierarchical phase tracing. A TraceSpan is an RAII scope whose path is
/// built from the enclosing spans on the same thread, e.g.
/// `anonymize/relevance/sample_worlds`. On close a span emits one JSONL
/// "span" record to the tracer's sink; obs_dump aggregates the records
/// into its per-phase table.
///
/// Each span record also carries per-phase resource accounting (deltas
/// between open and close on the owning thread): thread CPU time, the
/// wall-vs-CPU off-CPU gap with voluntary/involuntary context-switch
/// counts (where the thread *waited*, not just where it worked), minor/
/// major page faults, heap allocation count/bytes, plus the process peak
/// RSS at close and a stable small thread index (`tid`) that keeps
/// threads apart in Chrome/Perfetto traces. CPU time and allocations
/// also count the ParallelForBlocks workers the span's thread forked
/// (FoldIntoOpenSpans).

namespace chameleon::obs {

/// Point-in-time resource sample for the calling thread. Span records
/// report the delta of two samples (max_rss_kb excepted — the kernel only
/// tracks the process-wide peak, so spans report the value at close).
struct ThreadResourceSample {
  std::uint64_t cpu_ns = 0;        ///< CLOCK_THREAD_CPUTIME_ID
  std::uint64_t minor_faults = 0;  ///< RUSAGE_THREAD when available
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_csw = 0;    ///< ru_nvcsw: blocked on I/O or a lock
  std::uint64_t involuntary_csw = 0;  ///< ru_nivcsw: preempted by the kernel
  std::uint64_t max_rss_kb = 0;  ///< process peak RSS (kilobytes)
  std::uint64_t allocs = 0;      ///< thread heap allocations (count)
  std::uint64_t alloc_bytes = 0;
};

ThreadResourceSample SampleThreadResources();

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), in ns.
std::uint64_t ThreadCpuNanos();

/// Process-unique dense thread index, assigned on first use (main thread
/// usually gets 1). Stable for the thread's lifetime; never reused.
std::uint32_t CurrentThreadIndex();

/// Interns `path` into the process-global span-path table and returns its
/// id (> 0; stable for the process lifetime). Id 0 is reserved for "no
/// span". Interning takes a mutex and happens at span open — per phase,
/// not per sample — so it stays off the hot path.
std::uint32_t InternSpanPath(std::string_view path);

/// Path for an interned id; "" for 0 or an unknown id. Takes the intern
/// mutex — offline use only (profiler aggregation, tests), never from a
/// signal handler.
std::string SpanPathForId(std::uint32_t id);

/// Try-lock variant for fatal-signal context: resolves `id` into *path
/// and returns true, or returns false (leaving *path untouched) instead
/// of blocking when the intern mutex is contended — e.g. when the
/// crashing thread faulted inside InternSpanPath itself. Still
/// allocates, so it shares the crash handler's documented
/// best-effort-after-claim doctrine rather than being signal-safe.
bool TrySpanPathForId(std::uint32_t id, std::string* path);

/// Id of the innermost open span on the calling thread (0 = none), across
/// all tracers. Reads one thread-local word, so the sampling profiler's
/// SIGPROF handler can call it async-signal-safely to attribute a sample
/// to the active span without touching strings or locks.
std::uint32_t CurrentSpanPathId();

/// Makes `id` the calling thread's innermost span path id without
/// opening a span. A spawned ParallelForBlocks worker adopts the id of
/// the span that forked it, so a crash on the worker names that span.
void AdoptSpanPathId(std::uint32_t id);

/// Adds work that threads forked by the calling thread did on its behalf
/// (ParallelForBlocks' spawned workers) to every span open on the calling
/// thread, so their cpu_ns, allocs and alloc_bytes cover the whole
/// fork-join region. Their offcpu_ns, context switches and faults stay
/// the calling thread's own.
void FoldIntoOpenSpans(std::uint64_t cpu_ns, std::uint64_t allocs,
                       std::uint64_t alloc_bytes);

class Tracer {
 public:
  /// `sink` is not owned and may outlive every span; it may be null
  /// (spans then keep their path but write no record).
  explicit Tracer(RecordSink* sink) : sink_(sink) {}
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(Tracer);

  RecordSink* sink() const { return sink_; }

 private:
  RecordSink* sink_;
};

class TraceSpan {
 public:
  /// Opens a span on the process-global tracer. Inactive (near-zero cost)
  /// when observability is disabled.
  explicit TraceSpan(std::string_view name);

  /// Opens a span on an explicit tracer (tests, embedded use). Pass
  /// nullptr for an inactive span.
  TraceSpan(std::string_view name, Tracer* tracer);

  ~TraceSpan();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(TraceSpan);

  bool active() const { return tracer_ != nullptr; }
  const std::string& path() const { return path_; }
  std::uint64_t ElapsedNanos() const {
    return active() ? MonotonicNanos() - start_nanos_ : 0;
  }

  /// Attaches a counter to this span's record (merged by key). Span
  /// counters annotate the trace; they are not forwarded to the registry.
  void AddCount(std::string_view key, std::uint64_t delta = 1);

 private:
  friend void FoldIntoOpenSpans(std::uint64_t cpu_ns, std::uint64_t allocs,
                                std::uint64_t alloc_bytes);

  void Open(std::string_view name, Tracer* tracer);

  Tracer* tracer_ = nullptr;
  std::string path_;
  std::uint32_t path_id_ = 0;
  std::uint32_t parent_path_id_ = 0;
  std::uint64_t start_nanos_ = 0;
  std::uint64_t start_wall_millis_ = 0;
  ThreadResourceSample start_resources_;
  // cpu_ns / allocs / alloc_bytes that forked workers did for this span
  // (FoldIntoOpenSpans); the record adds them to this thread's deltas.
  ThreadResourceSample folded_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_TRACE_H_
