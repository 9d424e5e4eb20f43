#include "chameleon/obs/trace.h"

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "chameleon/obs/alloc_stats.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/logging.h"

namespace chameleon::obs {
namespace {

/// Innermost open span path id on this thread (0 = none). Plain word at
/// namespace scope: written only by this thread at span open/close, read
/// by this thread's SIGPROF handler — no cross-thread access, no guard
/// variable, no allocation on access (initial-exec TLS in a static lib).
thread_local std::uint32_t tls_span_path_id = 0;

/// Interned span paths. Id i lives at table[i - 1]; id 0 is "no span".
/// Leaked so late span closes during teardown never touch a destructed
/// table.
std::mutex& SpanPathsMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

struct SpanPathTable {
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::string> paths;  ///< index = id - 1
};

SpanPathTable& SpanPaths() {
  static auto* table = new SpanPathTable();
  return *table;
}

/// Active spans on this thread, innermost last. Spans of different
/// tracers may interleave (tests); each entry remembers its tracer so
/// path building only follows the matching ancestry.
struct StackEntry {
  const Tracer* tracer;
  TraceSpan* span;
};

thread_local std::vector<StackEntry> tls_span_stack;

const TraceSpan* InnermostFor(const Tracer* tracer) {
  for (auto it = tls_span_stack.rbegin(); it != tls_span_stack.rend(); ++it) {
    if (it->tracer == tracer) return it->span;
  }
  return nullptr;
}

std::uint64_t NonNegative(long value) {
  return value > 0 ? static_cast<std::uint64_t>(value) : 0;
}

}  // namespace

std::uint64_t ThreadCpuNanos() {
  struct timespec ts = {};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

ThreadResourceSample SampleThreadResources() {
  ThreadResourceSample sample;
  sample.cpu_ns = ThreadCpuNanos();
  struct rusage ru = {};
#ifdef RUSAGE_THREAD
  const int who = RUSAGE_THREAD;
#else
  const int who = RUSAGE_SELF;  // process-wide fallback
#endif
  if (getrusage(who, &ru) == 0) {
    sample.minor_faults = NonNegative(ru.ru_minflt);
    sample.major_faults = NonNegative(ru.ru_majflt);
    sample.max_rss_kb = NonNegative(ru.ru_maxrss);
    sample.voluntary_csw = NonNegative(ru.ru_nvcsw);
    sample.involuntary_csw = NonNegative(ru.ru_nivcsw);
  }
#ifdef RUSAGE_THREAD
  // ru_maxrss under RUSAGE_THREAD is still the process peak on Linux, but
  // re-read it process-wide to be explicit about what the field means.
  struct rusage ru_self = {};
  if (getrusage(RUSAGE_SELF, &ru_self) == 0) {
    sample.max_rss_kb = NonNegative(ru_self.ru_maxrss);
  }
#endif
  const AllocStats alloc = ThreadAllocStats();
  sample.allocs = alloc.allocs;
  sample.alloc_bytes = alloc.alloc_bytes;
  return sample;
}

std::uint32_t CurrentThreadIndex() {
  static std::atomic<std::uint32_t> next_index{1};
  thread_local const std::uint32_t index =
      next_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::uint32_t InternSpanPath(std::string_view path) {
  const std::lock_guard<std::mutex> lock(SpanPathsMu());
  SpanPathTable& table = SpanPaths();
  const auto it = table.ids.find(std::string(path));
  if (it != table.ids.end()) return it->second;
  table.paths.emplace_back(path);
  const auto id = static_cast<std::uint32_t>(table.paths.size());
  table.ids.emplace(std::string(path), id);
  return id;
}

std::string SpanPathForId(std::uint32_t id) {
  if (id == 0) return std::string();
  const std::lock_guard<std::mutex> lock(SpanPathsMu());
  const SpanPathTable& table = SpanPaths();
  if (id > table.paths.size()) return std::string();
  return table.paths[id - 1];
}

bool TrySpanPathForId(std::uint32_t id, std::string* path) {
  if (id == 0) return false;
  std::unique_lock<std::mutex> lock(SpanPathsMu(), std::try_to_lock);
  if (!lock.owns_lock()) return false;
  const SpanPathTable& table = SpanPaths();
  if (id > table.paths.size()) return false;
  *path = table.paths[id - 1];
  return true;
}

std::uint32_t CurrentSpanPathId() { return tls_span_path_id; }

void AdoptSpanPathId(std::uint32_t id) { tls_span_path_id = id; }

void FoldIntoOpenSpans(std::uint64_t cpu_ns, std::uint64_t allocs,
                       std::uint64_t alloc_bytes) {
  for (const StackEntry& entry : tls_span_stack) {
    entry.span->folded_.cpu_ns += cpu_ns;
    entry.span->folded_.allocs += allocs;
    entry.span->folded_.alloc_bytes += alloc_bytes;
  }
}

TraceSpan::TraceSpan(std::string_view name) {
  Tracer* tracer = Enabled() ? GlobalTracer() : nullptr;
  if (tracer != nullptr) Open(name, tracer);
}

TraceSpan::TraceSpan(std::string_view name, Tracer* tracer) {
  if (tracer != nullptr) Open(name, tracer);
}

void TraceSpan::Open(std::string_view name, Tracer* tracer) {
  tracer_ = tracer;
  const TraceSpan* parent = InnermostFor(tracer);
  if (parent != nullptr) {
    path_.reserve(parent->path().size() + 1 + name.size());
    path_ = parent->path();
    path_ += '/';
  }
  path_ += name;
  path_id_ = InternSpanPath(path_);
  parent_path_id_ = tls_span_path_id;
  tls_span_path_id = path_id_;
  ProfilerRegisterCurrentThread();
  start_wall_millis_ = WallUnixMillis();
  start_resources_ = SampleThreadResources();
  start_nanos_ = MonotonicNanos();
  tls_span_stack.push_back(StackEntry{tracer_, this});
}

TraceSpan::~TraceSpan() {
  if (!active()) return;
  const std::uint64_t duration = MonotonicNanos() - start_nanos_;
  // Restore the sampler's active-span word; the guard keeps a tolerated
  // out-of-order close from resurrecting a stale id.
  if (tls_span_path_id == path_id_) tls_span_path_id = parent_path_id_;

  // Scoped lifetimes make span closure LIFO per thread; find-and-erase
  // from the back tolerates out-of-order destruction anyway.
  for (auto it = tls_span_stack.rbegin(); it != tls_span_stack.rend(); ++it) {
    if (it->span == this) {
      tls_span_stack.erase(std::next(it).base());
      break;
    }
  }

  if (tracer_->sink() != nullptr) {
    const ThreadResourceSample end = SampleThreadResources();
    const auto delta = [](std::uint64_t lo, std::uint64_t hi) {
      return hi > lo ? hi - lo : 0;
    };
    const std::uint64_t cpu_ns = delta(start_resources_.cpu_ns, end.cpu_ns);
    Record record("span", start_wall_millis_);
    record.Str("path", path_)
        .Int("tid", CurrentThreadIndex())
        .Int("mono_ns", start_nanos_)
        .Int("dur_ns", duration)
        .Int("cpu_ns", cpu_ns + folded_.cpu_ns)
        // Wall-vs-CPU gap: time this thread existed inside the span but
        // was not running — blocked, runnable-but-preempted, or asleep.
        .Int("offcpu_ns", delta(cpu_ns, duration))
        .Int("vcsw", delta(start_resources_.voluntary_csw, end.voluntary_csw))
        .Int("ivcsw",
             delta(start_resources_.involuntary_csw, end.involuntary_csw))
        .Int("max_rss_kb", end.max_rss_kb)
        .Int("minflt", delta(start_resources_.minor_faults, end.minor_faults))
        .Int("majflt", delta(start_resources_.major_faults, end.major_faults))
        .Int("allocs",
             delta(start_resources_.allocs, end.allocs) + folded_.allocs)
        .Int("alloc_bytes",
             delta(start_resources_.alloc_bytes, end.alloc_bytes) +
                 folded_.alloc_bytes);
    if (!counters_.empty()) {
      record.Object("counters");
      for (const auto& [key, value] : counters_) record.Int(key, value);
    }
    tracer_->sink()->Write(record.Finish());
  }
}

void TraceSpan::AddCount(std::string_view key, std::uint64_t delta) {
  if (!active()) return;
  for (auto& [existing, value] : counters_) {
    if (existing == key) {
      value += delta;
      return;
    }
  }
  counters_.emplace_back(std::string(key), delta);
}

}  // namespace chameleon::obs
