// Hardware-counter engine implementation. See hw_counters.h for the
// contract. Layout mirrors the rest of src/obs: leaked mutexes and
// tables (teardown doctrine), relaxed-atomic fast-path gates, TLS
// per-thread state whose destructor releases kernel resources.

#include "chameleon/obs/hw_counters.h"

#include <cerrno>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "chameleon/obs/metrics.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/sink.h"
#include "chameleon/util/string_util.h"

namespace chameleon {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Global engine state. The active flag is the only thing span open/close
// reads; everything else is touched at Start/Stop or under a mutex.

std::atomic<bool> g_hw_active{false};
std::atomic<int> g_hw_backend{static_cast<int>(HwBackend::kNone)};
// Bumped on every StartHwCounters so TLS groups opened under a previous
// engine incarnation re-open instead of reporting stale fds.
std::atomic<std::uint64_t> g_hw_generation{0};
std::atomic<std::uint64_t> g_hw_spans_attributed{0};

std::mutex& ReasonMu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::string& ReasonLocked() {
  static std::string* reason = new std::string;
  return *reason;
}

void SetUnavailableReason(const std::string& reason) {
  const std::lock_guard<std::mutex> lock(ReasonMu());
  ReasonLocked() = reason;
}

// ---------------------------------------------------------------------------
// Per-span-path aggregates.

std::mutex& AggregatesMu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::map<std::string, HwPathAggregate>& Aggregates() {
  static auto* map = new std::map<std::string, HwPathAggregate>;
  return *map;
}

// ---------------------------------------------------------------------------
// perf backend: one counter group per thread. The read buffer layout
// with PERF_FORMAT_GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING is
//   u64 nr; u64 time_enabled; u64 time_running; u64 values[nr];
// with values in the order the events were attached to the group.

#ifdef __linux__
constexpr std::size_t kMaxGroupEvents = 7;

int PerfOpen(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  // Only the leader starts disabled; the group is enabled as a unit via
  // ioctl once every sibling is attached.
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(syscall(__NR_perf_event_open, &attr, 0, -1,
                                  group_fd, PERF_FLAG_FD_CLOEXEC));
}
#endif  // __linux__

/// One thread's open counter group. Lives in TLS; the destructor closes
/// the fds when the thread exits (ParallelForBlocks workers).
struct ThreadGroup {
  std::uint64_t generation = 0;
  bool open_attempted = false;
  bool ok = false;
  int leader_fd = -1;
  std::vector<int> fds;
  // Index of each counter in the group-read values array; -1 = absent.
  int idx_cycles = -1;
  int idx_instructions = -1;
  int idx_cache_refs = -1;
  int idx_cache_misses = -1;
  int idx_branch_misses = -1;
  int idx_stalled = -1;
  int idx_task_clock = -1;

  void Close() {
#ifdef __linux__
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
#endif
    // Reset field by field: `*this = ThreadGroup{}` would destroy a
    // temporary whose destructor re-enters Close().
    generation = 0;
    open_attempted = false;
    ok = false;
    leader_fd = -1;
    fds.clear();
    idx_cycles = idx_instructions = idx_cache_refs = idx_cache_misses = -1;
    idx_branch_misses = idx_stalled = idx_task_clock = -1;
  }

  ~ThreadGroup() { Close(); }
};

thread_local ThreadGroup tls_group;

/// Opens the calling thread's group. cycles + instructions are
/// required; the rest are best-effort siblings. On failure every fd is
/// closed and `errno_out` carries the decisive errno.
bool OpenThreadGroup(ThreadGroup* group, int* errno_out) {
  *errno_out = 0;
#ifndef __linux__
  *errno_out = ENOSYS;
  return false;
#else
  int next_index = 0;
  const auto attach = [&](std::uint32_t type, std::uint64_t config,
                          int* idx) {
    const int fd = PerfOpen(type, config, group->leader_fd);
    if (fd < 0) return false;
    group->fds.push_back(fd);
    if (group->leader_fd == -1) group->leader_fd = fd;
    *idx = next_index++;
    return true;
  };

  if (!attach(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES,
              &group->idx_cycles) ||
      !attach(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS,
              &group->idx_instructions)) {
    *errno_out = errno;
    group->Close();
    return false;
  }
  // Optional siblings: a miss degrades the sample, not the engine.
  // cache-references and cache-misses only make sense as a pair.
  if (attach(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES,
             &group->idx_cache_refs)) {
    if (!attach(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES,
                &group->idx_cache_misses)) {
      group->idx_cache_refs = -1;  // value slot stays, pair is unusable
    }
  }
  attach(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES,
         &group->idx_branch_misses);
  attach(PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND,
         &group->idx_stalled);
  attach(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK,
         &group->idx_task_clock);

  if (ioctl(group->leader_fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) !=
          0 ||
      ioctl(group->leader_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) !=
          0) {
    *errno_out = errno;
    group->Close();
    return false;
  }
  group->ok = true;
  return true;
#endif  // __linux__
}

bool ReadThreadGroup(const ThreadGroup& group, HwCounterSample* sample) {
#ifndef __linux__
  (void)group;
  (void)sample;
  return false;
#else
  std::uint64_t buf[3 + kMaxGroupEvents];
  const ssize_t n = ::read(group.leader_fd, buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return false;
  const std::uint64_t nr = buf[0];
  const auto value = [&](int idx) -> std::uint64_t {
    return idx >= 0 && static_cast<std::uint64_t>(idx) < nr
               ? buf[3 + idx]
               : 0;
  };
  sample->time_enabled_ns = buf[1];
  sample->time_running_ns = buf[2];
  sample->cycles = value(group.idx_cycles);
  sample->instructions = value(group.idx_instructions);
  sample->cache_references = value(group.idx_cache_refs);
  sample->cache_misses = value(group.idx_cache_misses);
  sample->branch_misses = value(group.idx_branch_misses);
  sample->stalled_backend = value(group.idx_stalled);
  sample->task_clock_ns = value(group.idx_task_clock);
  sample->has_cache =
      group.idx_cache_refs >= 0 && group.idx_cache_misses >= 0;
  sample->has_branch = group.idx_branch_misses >= 0;
  sample->has_stalled = group.idx_stalled >= 0;
  sample->has_task_clock = group.idx_task_clock >= 0;
  sample->valid = true;
  return true;
#endif  // __linux__
}

std::string PerfErrnoReason(int err) {
  switch (err) {
    case EACCES:
    case EPERM:
      return StrFormat(
          "perf_event_open denied (errno %d): kernel.perf_event_paranoid "
          "or a seccomp filter forbids counters",
          err);
    case ENOENT:
    case ENODEV:
    case EOPNOTSUPP:
      return StrFormat(
          "perf_event_open failed (errno %d): no usable PMU on this "
          "machine or container",
          err);
    case ENOSYS:
      return "perf_event_open unsupported on this platform";
    default:
      return StrFormat("perf_event_open failed (errno %d): %s", err,
                       std::strerror(err));
  }
}

// ---------------------------------------------------------------------------
// Emulated backend: deterministic counters synthesized from per-thread
// CPU time so the whole attribution pipeline (span fields, aggregates,
// classifier, scaling columns) can be exercised without a PMU. The
// model is fixed and documented in DESIGN.md: 3 cycles per CPU
// nanosecond, IPC 1.25, one cache reference per 16 instructions, miss
// rate 1/8, one branch miss per 256 instructions, a quarter of cycles
// stalled. time_enabled == time_running, so no multiplexing correction
// fires and the classifier lands on "balanced".

std::uint64_t ThreadCpuNanos() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void EmulatedSample(HwCounterSample* sample) {
  const std::uint64_t cpu_ns = ThreadCpuNanos();
  sample->time_enabled_ns = cpu_ns;
  sample->time_running_ns = cpu_ns;
  sample->task_clock_ns = cpu_ns;
  sample->cycles = cpu_ns * 3;
  sample->instructions = sample->cycles / 4 * 5;
  sample->cache_references = sample->instructions / 16;
  sample->cache_misses = sample->cache_references / 8;
  sample->branch_misses = sample->instructions / 256;
  sample->stalled_backend = sample->cycles / 4;
  sample->has_cache = true;
  sample->has_branch = true;
  sample->has_stalled = true;
  sample->has_task_clock = true;
  sample->valid = true;
}

/// CHAMELEON_HW_COUNTERS env override, lower-cased decision:
///   off/0/false → disabled (how CI simulates a paranoid kernel)
///   emulate     → emulated backend
///   perf        → perf only (no fallback)
///   unset/auto  → probe perf, unavailable on failure
enum class EnvMode { kAuto, kOff, kEmulate, kPerf };

EnvMode HwEnvMode() {
  const char* raw = std::getenv("CHAMELEON_HW_COUNTERS");
  if (raw == nullptr) return EnvMode::kAuto;
  std::string value(raw);
  for (char& c : value) c = static_cast<char>(std::tolower(c));
  if (value == "off" || value == "0" || value == "false") return EnvMode::kOff;
  if (value == "emulate" || value == "emulated") return EnvMode::kEmulate;
  if (value == "perf") return EnvMode::kPerf;
  return EnvMode::kAuto;
}

}  // namespace

std::uint64_t ScaleMultiplexed(std::uint64_t raw_delta,
                               std::uint64_t enabled_delta,
                               std::uint64_t running_delta) {
  if (running_delta == 0) return 0;
  if (running_delta >= enabled_delta) return raw_delta;
  const long double scaled = static_cast<long double>(raw_delta) *
                             static_cast<long double>(enabled_delta) /
                             static_cast<long double>(running_delta);
  return static_cast<std::uint64_t>(scaled + 0.5L);
}

HwCounterDelta ComputeHwDelta(const HwCounterSample& open,
                              const HwCounterSample& close) {
  HwCounterDelta delta;
  if (!open.valid || !close.valid) return delta;
  const auto sub = [](std::uint64_t lo, std::uint64_t hi) {
    return hi > lo ? hi - lo : 0;
  };
  const std::uint64_t enabled =
      sub(open.time_enabled_ns, close.time_enabled_ns);
  const std::uint64_t running =
      sub(open.time_running_ns, close.time_running_ns);
  const auto scale = [&](std::uint64_t raw) {
    return ScaleMultiplexed(raw, enabled, running);
  };
  delta.cycles = scale(sub(open.cycles, close.cycles));
  delta.instructions = scale(sub(open.instructions, close.instructions));
  delta.cache_references =
      scale(sub(open.cache_references, close.cache_references));
  delta.cache_misses = scale(sub(open.cache_misses, close.cache_misses));
  delta.branch_misses = scale(sub(open.branch_misses, close.branch_misses));
  delta.stalled_backend =
      scale(sub(open.stalled_backend, close.stalled_backend));
  // task-clock is a software event: always running, never multiplexed.
  delta.task_clock_ns = sub(open.task_clock_ns, close.task_clock_ns);
  delta.scale = running > 0 && enabled > running
                    ? static_cast<double>(enabled) /
                          static_cast<double>(running)
                    : 1.0;
  delta.has_cache = open.has_cache && close.has_cache;
  delta.has_branch = open.has_branch && close.has_branch;
  delta.has_stalled = open.has_stalled && close.has_stalled;
  delta.valid = true;
  return delta;
}

bool StartHwCounters() {
  StopHwCounters();
  {
    const std::lock_guard<std::mutex> lock(AggregatesMu());
    Aggregates().clear();
  }
  g_hw_spans_attributed.store(0, std::memory_order_relaxed);
  g_hw_generation.fetch_add(1, std::memory_order_relaxed);

  const EnvMode mode = HwEnvMode();
  if (mode == EnvMode::kOff) {
    SetUnavailableReason(
        "disabled by CHAMELEON_HW_COUNTERS env override");
    return false;
  }
  if (mode == EnvMode::kEmulate) {
    g_hw_backend.store(static_cast<int>(HwBackend::kEmulated),
                       std::memory_order_relaxed);
    SetUnavailableReason("");
    g_hw_active.store(true, std::memory_order_release);
    return true;
  }
  // Probe by opening the calling thread's group; success means worker
  // threads will be able to register lazily too.
  int err = 0;
  tls_group.Close();
  tls_group.generation = g_hw_generation.load(std::memory_order_relaxed);
  tls_group.open_attempted = true;
  if (!OpenThreadGroup(&tls_group, &err)) {
    SetUnavailableReason(PerfErrnoReason(err));
    return false;
  }
  g_hw_backend.store(static_cast<int>(HwBackend::kPerf),
                     std::memory_order_relaxed);
  SetUnavailableReason("");
  g_hw_active.store(true, std::memory_order_release);
  return true;
}

void StopHwCounters() {
  g_hw_active.store(false, std::memory_order_release);
  g_hw_backend.store(static_cast<int>(HwBackend::kNone),
                     std::memory_order_relaxed);
  // Only the calling thread's fds can be closed safely here; worker
  // groups close in their TLS destructors, and any survivor re-opens on
  // the next Start via the generation check.
  tls_group.Close();
}

bool HwCountersActive() {
  return g_hw_active.load(std::memory_order_relaxed);
}

HwBackend HwCountersBackend() {
  return static_cast<HwBackend>(g_hw_backend.load(std::memory_order_relaxed));
}

std::string HwCountersUnavailableReason() {
  const std::lock_guard<std::mutex> lock(ReasonMu());
  return ReasonLocked();
}

bool SampleHwCounters(HwCounterSample* sample) {
  *sample = HwCounterSample{};
  if (!g_hw_active.load(std::memory_order_acquire)) return false;
  switch (HwCountersBackend()) {
    case HwBackend::kEmulated:
      EmulatedSample(sample);
      return true;
    case HwBackend::kPerf: {
      const std::uint64_t generation =
          g_hw_generation.load(std::memory_order_relaxed);
      if (tls_group.generation != generation || !tls_group.open_attempted) {
        tls_group.Close();
        tls_group.generation = generation;
        tls_group.open_attempted = true;
        int err = 0;
        OpenThreadGroup(&tls_group, &err);
      }
      if (!tls_group.ok) return false;
      return ReadThreadGroup(tls_group, sample);
    }
    case HwBackend::kNone:
      return false;
  }
  return false;
}

void AccumulateHwPath(const std::string& stripped_path,
                      const HwCounterDelta& delta) {
  if (!delta.valid) return;
  {
    const std::lock_guard<std::mutex> lock(AggregatesMu());
    HwPathAggregate& agg = Aggregates()[stripped_path];
    if (agg.path.empty()) agg.path = stripped_path;
    agg.spans += 1;
    agg.cycles += delta.cycles;
    agg.instructions += delta.instructions;
    agg.cache_references += delta.cache_references;
    agg.cache_misses += delta.cache_misses;
    agg.branch_misses += delta.branch_misses;
    agg.stalled_backend += delta.stalled_backend;
    agg.task_clock_ns += delta.task_clock_ns;
  }
  g_hw_spans_attributed.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Count("hw/" + stripped_path + "/cycles", delta.cycles);
  metrics.Count("hw/" + stripped_path + "/instructions", delta.instructions);
  if (delta.has_cache) {
    metrics.Count("hw/" + stripped_path + "/cache_refs",
                  delta.cache_references);
    metrics.Count("hw/" + stripped_path + "/cache_misses",
                  delta.cache_misses);
  }
}

std::vector<HwPathAggregate> HwPathAggregates() {
  std::vector<HwPathAggregate> out;
  const std::lock_guard<std::mutex> lock(AggregatesMu());
  out.reserve(Aggregates().size());
  for (const auto& [path, agg] : Aggregates()) out.push_back(agg);
  return out;  // std::map iteration is already path-sorted
}

void ResetHwPathAggregates() {
  const std::lock_guard<std::mutex> lock(AggregatesMu());
  Aggregates().clear();
}

std::uint64_t HwSpansAttributed() {
  return g_hw_spans_attributed.load(std::memory_order_relaxed);
}

const char* HwBottleneckName(HwBottleneck b) {
  switch (b) {
    case HwBottleneck::kUnknown:
      return "unknown";
    case HwBottleneck::kFrontendBound:
      return "frontend-bound";
    case HwBottleneck::kBackendMemoryBound:
      return "backend-memory-bound";
    case HwBottleneck::kComputeBound:
      return "compute-bound";
    case HwBottleneck::kBalanced:
      return "balanced";
  }
  return "unknown";
}

HwBottleneck ClassifyHwBottleneck(const HwPathAggregate& agg) {
  if (agg.cycles == 0 || agg.instructions == 0) return HwBottleneck::kUnknown;
  const double ipc = agg.Ipc();
  const double cmr = agg.CacheMissRate();
  const double bmr = agg.BranchMissRate();
  const double stall_frac =
      static_cast<double>(agg.stalled_backend) /
      static_cast<double>(agg.cycles);
  if ((cmr > 0.20 && ipc < 1.0) || (stall_frac > 0.5 && ipc < 1.0)) {
    return HwBottleneck::kBackendMemoryBound;
  }
  if (bmr > 0.02 && ipc < 1.0) return HwBottleneck::kFrontendBound;
  if (ipc >= 1.5) return HwBottleneck::kComputeBound;
  return HwBottleneck::kBalanced;
}

std::string FormatHwCounterRecord(const HwPathAggregate& agg,
                                  HwBackend backend) {
  return Record("hw_counters")
      .Str("path", agg.path)
      .Str("backend", backend == HwBackend::kEmulated ? "emulated" : "perf")
      .Int("spans", agg.spans)
      .Int("cycles", agg.cycles)
      .Int("instructions", agg.instructions)
      .Int("cache_refs", agg.cache_references)
      .Int("cache_misses", agg.cache_misses)
      .Int("branch_misses", agg.branch_misses)
      .Int("stalled_backend", agg.stalled_backend)
      .Int("task_clock_ns", agg.task_clock_ns)
      .Num("ipc", agg.Ipc())
      .Num("cache_miss_rate", agg.CacheMissRate())
      .Num("branch_miss_rate", agg.BranchMissRate())
      .Str("class", HwBottleneckName(ClassifyHwBottleneck(agg)))
      .Finish();
}

void EmitHwCounterRecords(RecordSink* sink) {
  if (sink == nullptr) return;
  // FinalizeRun may arrive via a signal handler while another thread
  // holds the aggregate lock; skipping beats deadlocking (same doctrine
  // as EmitHeapProfileRecords).
  std::unique_lock<std::mutex> lock(AggregatesMu(), std::try_to_lock);
  if (!lock.owns_lock()) return;
  std::vector<HwPathAggregate> aggregates;
  aggregates.reserve(Aggregates().size());
  for (const auto& [path, agg] : Aggregates()) aggregates.push_back(agg);
  lock.unlock();
  // FinalizeRun emits before StopHwCounters so the live backend still
  // names the engine that produced these counts.
  const HwBackend backend = HwCountersBackend();
  for (const HwPathAggregate& agg : aggregates) {
    if (agg.spans == 0) continue;
    sink->Write(FormatHwCounterRecord(agg, backend));
  }
}

}  // namespace obs
}  // namespace chameleon
