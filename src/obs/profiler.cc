#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr, pthread_getattr_np, REG_RIP
#endif

#include "chameleon/obs/profiler.h"

#include "profiler_internal.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

#if CHAMELEON_PROFILER_IMPL
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cxxabi.h>

// Older glibc declares sigevent's thread-id member but not the POSIX-ish
// alias; SIGEV_THREAD_ID itself is Linux-only.
#if !defined(sigev_notify_thread_id)
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // CHAMELEON_PROFILER_IMPL

namespace chameleon::obs {

std::string FoldedText(const ProfileReport& report) {
  std::string out;
  for (const ProfileStack& stack : report.stacks) {
    bool first = true;
    for (const std::string& frame : stack.frames) {
      if (!first) out += ';';
      first = false;
      out += frame;
    }
    if (first) out += "(unknown)";
    out += StrFormat(" %llu\n",
                     static_cast<unsigned long long>(stack.samples));
  }
  return out;
}

#if CHAMELEON_PROFILER_IMPL

namespace {

/// One frame name, folded-format safe: ';' separates frames and the last
/// ' ' separates the count, so neither may appear inside a frame.
std::string SanitizeFrame(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c == ';') {
      out += ':';
    } else if (c == ' ' || c == '\n' || c == '\t') {
      out += '_';
    } else {
      out += c;
    }
  }
  return out.empty() ? std::string("(unknown)") : out;
}

constexpr const char kNoSpanLabel[] = "(no_span)";

constexpr std::uint32_t kRingCapacity = kProfilerRingCapacity;  // power of two
constexpr std::uint32_t kMaxStackDepth = internal::kMaxWalkDepth;

/// One captured sample. Written by the SIGPROF handler on the owning
/// thread, read by the drainer; the head/tail release/acquire pair
/// publishes the payload.
struct RawSample {
  std::uint32_t path_id = 0;
  std::uint32_t depth = 0;
  std::uintptr_t pcs[kMaxStackDepth];
};

/// Per-thread profiler state. Leaked into the registry for the process
/// lifetime (like metrics shards) so the drainer can always finish
/// reading a ring, even after its thread exited.
struct ThreadState {
  std::atomic<std::uint32_t> head{0};  ///< written by the signal handler
  std::atomic<std::uint32_t> tail{0};  ///< written by the drainer
  std::atomic<std::uint64_t> dropped{0};
  pid_t tid = 0;
  pthread_t pthread{};
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  timer_t timer{};
  bool timer_armed = false;  ///< guarded by RegistryMu()
  bool alive = true;         ///< guarded by RegistryMu()
  RawSample ring[kRingCapacity];
};

thread_local ThreadState* tls_state = nullptr;

std::mutex& RegistryMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<ThreadState*>& Registry() {
  static auto* registry = new std::vector<ThreadState*>();
  return *registry;
}

std::atomic<bool> g_profiling{false};

/// Aggregated samples, keyed by [path_id, pc...] (outermost pc last).
/// Merged by the drainer, rendered at Stop.
struct Aggregate {
  std::map<std::vector<std::uintptr_t>, std::uint64_t> stacks;
  std::uint64_t samples = 0;
};

std::mutex& AggregateMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

Aggregate& GlobalAggregate() {
  static auto* aggregate = new Aggregate();
  return *aggregate;
}

/// Start/Stop/Capture serialization plus the drainer handle.
struct Control {
  std::mutex mu;
  bool running = false;
  ProfilerOptions options;
  std::uint64_t start_nanos = 0;
  std::thread drainer;
  std::atomic<bool> drainer_stop{false};
};

Control& GlobalControl() {
  static auto* control = new Control();
  return *control;
}

}  // namespace

// ---------------------------------------------------------------------------
// Signal handler + stack walk. Async-signal-safe: no locks, no
// allocation, no strings; every frame pointer is bounds-checked against
// the thread's stack before it is dereferenced. Sanitizer instrumentation
// is disabled — the walk reads stack words that are not ordinary objects
// (saved-FP/return-address slots), which ASan would misclassify.
// ---------------------------------------------------------------------------

namespace internal {

CHAMELEON_NO_SANITIZE
std::uint32_t WalkStack(void* ucontext_raw, std::uintptr_t* pcs,
                        std::uint32_t max_depth, std::uintptr_t stack_lo,
                        std::uintptr_t stack_hi) {
  std::uint32_t depth = 0;
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  static_cast<void>(ucontext_raw);
  pc = reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
#endif
  if (pc != 0 && depth < max_depth) pcs[depth++] = pc;
  // Classic frame-pointer walk: [fp] = caller's fp, [fp + 8] = return
  // address. Requires -fno-omit-frame-pointer (set by the build); a
  // broken chain just ends the walk early.
  while (depth < max_depth) {
    if (fp < stack_lo || fp + 2 * sizeof(std::uintptr_t) > stack_hi ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const std::uintptr_t next = reinterpret_cast<std::uintptr_t*>(fp)[0];
    const std::uintptr_t ret = reinterpret_cast<std::uintptr_t*>(fp)[1];
    if (ret == 0) break;
    pcs[depth++] = ret;
    if (next <= fp) break;  // frames must move up the stack
    fp = next;
  }
  return depth;
}

}  // namespace internal

namespace {

extern "C" CHAMELEON_NO_SANITIZE void ChameleonProfilerSignalHandler(
    int /*sig*/, siginfo_t* /*info*/, void* ucontext_raw) {
  const int saved_errno = errno;
  ThreadState* state = tls_state;
  if (state != nullptr && g_profiling.load(std::memory_order_relaxed)) {
    const std::uint32_t head = state->head.load(std::memory_order_relaxed);
    const std::uint32_t tail = state->tail.load(std::memory_order_acquire);
    if (head - tail >= kRingCapacity) {
      state->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      RawSample& sample = state->ring[head & (kRingCapacity - 1)];
      sample.path_id = CurrentSpanPathId();
      sample.depth = internal::WalkStack(ucontext_raw, sample.pcs,
                                         kMaxStackDepth, state->stack_lo,
                                         state->stack_hi);
      state->head.store(head + 1, std::memory_order_release);
    }
  }
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// Thread registration / timers. All registry mutation is mutex-guarded;
// none of it happens in the handler.
// ---------------------------------------------------------------------------

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

/// Arms a CLOCK_THREAD_CPUTIME_ID timer for `state`'s thread, with
/// SIGPROF delivered to exactly that thread. Caller holds RegistryMu().
bool ArmTimerLocked(ThreadState* state, int hz) {
  if (state->timer_armed || !state->alive) return state->timer_armed;
  clockid_t clock;
  if (pthread_getcpuclockid(state->pthread, &clock) != 0) return false;
  struct sigevent sev = {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = state->tid;
  if (timer_create(clock, &sev, &state->timer) != 0) return false;
  const long period_ns = 1'000'000'000L / hz;
  struct itimerspec spec = {};
  spec.it_interval.tv_sec = period_ns / 1'000'000'000L;
  spec.it_interval.tv_nsec = period_ns % 1'000'000'000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(state->timer, 0, &spec, nullptr) != 0) {
    timer_delete(state->timer);
    return false;
  }
  state->timer_armed = true;
  return true;
}

void DisarmTimerLocked(ThreadState* state) {
  if (!state->timer_armed) return;
  timer_delete(state->timer);
  state->timer_armed = false;
}

/// Unregisters at thread exit: the TLS pointer is cleared before the
/// timer goes away, so a still-pending SIGPROF finds no state and
/// returns. The state itself stays in the registry for the drainer.
struct ThreadExitGuard {
  ThreadState* state = nullptr;
  ~ThreadExitGuard() {
    if (state == nullptr) return;
    tls_state = nullptr;
    const std::lock_guard<std::mutex> lock(RegistryMu());
    DisarmTimerLocked(state);
    state->alive = false;
  }
};

thread_local ThreadExitGuard tls_exit_guard;

// ---------------------------------------------------------------------------
// Drainer: wakes every drain_interval_millis, moves ring contents into
// the shared aggregate. Runs with SIGINT/SIGTERM blocked so the obs
// termination hooks (which join this thread via StopGlobalProfiler)
// never land here.
// ---------------------------------------------------------------------------

void DrainOnce() {
  std::vector<ThreadState*> states;
  {
    const std::lock_guard<std::mutex> lock(RegistryMu());
    states = Registry();
  }
  const std::lock_guard<std::mutex> agg_lock(AggregateMu());
  Aggregate& aggregate = GlobalAggregate();
  std::vector<std::uintptr_t> key;
  for (ThreadState* state : states) {
    const std::uint32_t head = state->head.load(std::memory_order_acquire);
    std::uint32_t tail = state->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const RawSample& sample = state->ring[tail & (kRingCapacity - 1)];
      key.clear();
      key.push_back(sample.path_id);
      const std::uint32_t depth = std::min(sample.depth, kMaxStackDepth);
      for (std::uint32_t i = 0; i < depth; ++i) key.push_back(sample.pcs[i]);
      ++aggregate.stacks[key];
      ++aggregate.samples;
    }
    state->tail.store(tail, std::memory_order_release);
  }
}

void DrainerMain(int interval_millis) {
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGINT);
  sigaddset(&blocked, SIGTERM);
  sigaddset(&blocked, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);

  Control& control = GlobalControl();
  // Sleep in short slices so StopGlobalProfiler's join stays responsive
  // even with a multi-second drain interval (tests park the drainer that
  // way to force ring overflow).
  int slept_millis = 0;
  while (!control.drainer_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    slept_millis += 10;
    if (slept_millis >= interval_millis) {
      DrainOnce();
      slept_millis = 0;
    }
  }
  DrainOnce();  // final sweep after timers were disarmed
}

// ---------------------------------------------------------------------------
// Offline symbolization + rendering.
// ---------------------------------------------------------------------------

std::string Basename(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return std::string(slash == std::string_view::npos
                         ? path
                         : path.substr(slash + 1));
}

}  // namespace

namespace internal {

// Executables link with -rdynamic (CMake ENABLE_EXPORTS) so dladdr sees
// non-static functions; file-local symbols resolve to the nearest
// exported neighbor, which is the usual frame-pointer-profiler
// trade-off.
std::string SymbolizePc(std::uintptr_t pc,
                        std::unordered_map<std::uintptr_t, std::string>* cache) {
  const auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  std::string name;
  Dl_info info = {};
  // The sampled pc is a return address (one past the call) for all but
  // the leaf frame; back up one byte so calls at the end of a function
  // do not resolve into the next symbol.
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = SanitizeFrame(status == 0 && demangled != nullptr ? demangled
                                                             : info.dli_sname);
    std::free(demangled);
  } else if (info.dli_fname != nullptr) {
    const auto base = reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    name = SanitizeFrame(Basename(info.dli_fname)) +
           StrFormat("+0x%llx",
                     static_cast<unsigned long long>(pc - base));
  } else {
    name = StrFormat("0x%llx", static_cast<unsigned long long>(pc));
  }
  cache->emplace(pc, name);
  return name;
}

}  // namespace internal

namespace {

/// Splices the span path in as synthetic root frames, then the walked
/// stack outermost-first, so flames read
/// `reliability;two_terminal;sample_worlds;<outer fn>;...;<leaf fn>`.
ProfileReport RenderAggregate(const Aggregate& aggregate, int hz,
                              double duration_ms, std::uint64_t dropped) {
  ProfileReport report;
  report.hz = hz;
  report.duration_ms = duration_ms;
  report.dropped = dropped;
  report.samples = aggregate.samples;

  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  std::map<std::uint32_t, std::uint64_t> span_counts;
  for (const auto& [key, count] : aggregate.stacks) {
    const auto path_id = static_cast<std::uint32_t>(key[0]);
    span_counts[path_id] += count;

    ProfileStack stack;
    stack.samples = count;
    const std::string span_path = SpanPathForId(path_id);
    if (span_path.empty()) {
      stack.frames.push_back(kNoSpanLabel);
    } else {
      for (const std::string& part : SplitTokens(span_path, "/")) {
        stack.frames.push_back(SanitizeFrame(part));
      }
    }
    for (std::size_t i = key.size(); i > 1; --i) {
      stack.frames.push_back(internal::SymbolizePc(key[i - 1], &symbol_cache));
    }
    report.stacks.push_back(std::move(stack));
  }
  std::stable_sort(report.stacks.begin(), report.stacks.end(),
                   [](const ProfileStack& a, const ProfileStack& b) {
                     return a.samples > b.samples;
                   });

  for (const auto& [path_id, count] : span_counts) {
    const std::string span_path = SpanPathForId(path_id);
    report.span_samples.emplace_back(
        span_path.empty() ? kNoSpanLabel : span_path, count);
  }
  std::stable_sort(report.span_samples.begin(), report.span_samples.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return report;
}

std::uint64_t TotalDropped() {
  const std::lock_guard<std::mutex> lock(RegistryMu());
  std::uint64_t dropped = 0;
  for (const ThreadState* state : Registry()) {
    dropped += state->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

void EmitProfileRecord(const ProfileReport& report,
                       const std::string& folded_out) {
  RecordSink* sink = GlobalSink();
  if (sink == nullptr) return;
  Record record("profile");
  record.Int("hz", report.hz)
      .Num("duration_ms", report.duration_ms)
      .Int("samples", report.samples)
      .Int("dropped", report.dropped);
  if (!folded_out.empty()) record.Str("folded_out", folded_out);
  record.Object("spans");
  for (const auto& [path, samples] : report.span_samples) {
    record.Int(path, samples);
  }
  sink->Write(record.Finish());
  sink->Flush();
}

Status WriteFoldedFile(const std::string& path, const std::string& folded) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::size_t written =
      std::fwrite(folded.data(), 1, folded.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != folded.size() || !closed) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

void InstallSigprofHandler() {
  static const bool installed = [] {
    struct sigaction action = {};
    action.sa_sigaction = ChameleonProfilerSignalHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    return true;
  }();
  static_cast<void>(installed);
}

}  // namespace

namespace internal {

bool CurrentThreadStackBounds(std::uintptr_t* lo, std::uintptr_t* hi) {
  const ThreadState* state = tls_state;
  if (state == nullptr || state->stack_lo == 0) return false;
  *lo = state->stack_lo;
  *hi = state->stack_hi;
  return true;
}

}  // namespace internal

void ProfilerRegisterCurrentThread() {
  if (tls_state != nullptr) {
    // fork() keeps the TLS pointer but gives the surviving thread a new
    // kernel tid, and POSIX timers are not inherited: refresh the id and
    // forget the parent's timer handle so the next arm targets this
    // process's thread instead of failing with EINVAL.
    const pid_t tid = CurrentTid();
    if (tls_state->tid != tid) {
      const std::lock_guard<std::mutex> lock(RegistryMu());
      tls_state->tid = tid;
      tls_state->timer_armed = false;
    }
    return;
  }
  auto* state = new ThreadState();  // leaked via the registry
  state->tid = CurrentTid();
  state->pthread = pthread_self();
  // Stack bounds let the handler's walk reject wild frame pointers
  // without ever touching unmapped memory.
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      state->stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
      state->stack_hi = state->stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  {
    const std::lock_guard<std::mutex> lock(RegistryMu());
    Registry().push_back(state);
    Control& control = GlobalControl();
    if (g_profiling.load(std::memory_order_relaxed)) {
      ArmTimerLocked(state, control.options.hz);
    }
  }
  tls_exit_guard.state = state;
  tls_state = state;  // last: the handler may fire from here on
}

bool ProfilerRunning() {
  return g_profiling.load(std::memory_order_relaxed);
}

Status StartGlobalProfiler(const ProfilerOptions& options) {
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument(
        StrFormat("profile hz %d out of range [1, 10000]", options.hz));
  }
  if (options.drain_interval_millis < 1) {
    return Status::InvalidArgument("drain interval must be positive");
  }
  Control& control = GlobalControl();
  const std::lock_guard<std::mutex> lock(control.mu);
  if (control.running) {
    return Status::FailedPrecondition("profiler already running");
  }

  InstallSigprofHandler();
  ProfilerRegisterCurrentThread();

  // Fresh capture: discard stale ring contents and the previous
  // aggregate before any timer fires.
  {
    const std::lock_guard<std::mutex> agg_lock(AggregateMu());
    GlobalAggregate().stacks.clear();
    GlobalAggregate().samples = 0;
  }
  {
    const std::lock_guard<std::mutex> registry_lock(RegistryMu());
    for (ThreadState* state : Registry()) {
      state->tail.store(state->head.load(std::memory_order_acquire),
                        std::memory_order_release);
      state->dropped.store(0, std::memory_order_relaxed);
    }
  }

  control.options = options;
  control.start_nanos = MonotonicNanos();
  control.drainer_stop.store(false, std::memory_order_release);
  control.running = true;
  g_profiling.store(true, std::memory_order_release);

  std::size_t armed = 0;
  {
    const std::lock_guard<std::mutex> registry_lock(RegistryMu());
    for (ThreadState* state : Registry()) {
      if (ArmTimerLocked(state, options.hz)) ++armed;
    }
  }
  if (armed == 0) {
    g_profiling.store(false, std::memory_order_release);
    control.running = false;
    return Status::Internal("could not arm any per-thread CPU timer");
  }
  control.drainer = std::thread(DrainerMain, options.drain_interval_millis);
  CH_LOG(Info) << "profiler sampling " << armed << " thread(s) at "
               << options.hz << " Hz";
  return Status::OK();
}

Result<ProfileReport> StopGlobalProfiler() {
  Control& control = GlobalControl();
  const std::lock_guard<std::mutex> lock(control.mu);
  if (!control.running) {
    return Status::FailedPrecondition("profiler not running");
  }

  {
    const std::lock_guard<std::mutex> registry_lock(RegistryMu());
    for (ThreadState* state : Registry()) DisarmTimerLocked(state);
  }
  g_profiling.store(false, std::memory_order_release);
  control.drainer_stop.store(true, std::memory_order_release);
  if (control.drainer.joinable()) control.drainer.join();
  control.running = false;

  const double duration_ms =
      static_cast<double>(MonotonicNanos() - control.start_nanos) * 1e-6;
  const std::uint64_t dropped = TotalDropped();
  ProfileReport report;
  {
    const std::lock_guard<std::mutex> agg_lock(AggregateMu());
    report = RenderAggregate(GlobalAggregate(), control.options.hz,
                             duration_ms, dropped);
  }

  if (!control.options.folded_out.empty()) {
    if (Status s = WriteFoldedFile(control.options.folded_out,
                                   FoldedText(report));
        !s.ok()) {
      return s;
    }
  }
  if (control.options.emit_record) {
    EmitProfileRecord(report, control.options.folded_out);
  }
  return report;
}

#else  // !CHAMELEON_PROFILER_IMPL

namespace {
Status ProfilerUnavailable() {
  return Status::Unimplemented(
      "per-thread CPU profiling requires Linux timer_create");
}
}  // namespace

void ProfilerRegisterCurrentThread() {}
bool ProfilerRunning() { return false; }

Status StartGlobalProfiler(const ProfilerOptions& options) {
  // Same argument contract as the real implementation, so callers see
  // bad flags as bad flags regardless of build configuration.
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument(
        StrFormat("profile hz %d out of range [1, 10000]", options.hz));
  }
  if (options.drain_interval_millis < 1) {
    return Status::InvalidArgument("drain interval must be positive");
  }
  return ProfilerUnavailable();
}

Result<ProfileReport> StopGlobalProfiler() { return ProfilerUnavailable(); }

#endif  // CHAMELEON_PROFILER_IMPL

}  // namespace chameleon::obs
