#include "chameleon/obs/obs.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "chameleon/obs/alloc_stats.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {
namespace {

std::atomic<bool> g_enabled{false};

std::mutex g_lifecycle_mu;
// Sink and tracer survive Shutdown/re-Init for the process lifetime:
// spans opened before a re-Init may still hold pointers to them. Retired
// instances are parked here (never freed, but reachable — not a leak).
RecordSink* g_sink = nullptr;
Tracer* g_tracer = nullptr;
std::uint64_t g_run_start_nanos = 0;

struct RetiredRuns {
  std::vector<std::unique_ptr<RecordSink>> sinks;
  std::vector<std::unique_ptr<Tracer>> tracers;
};

RetiredRuns& Retired() {
  static RetiredRuns* retired = new RetiredRuns();
  return *retired;
}

/// Writes the run_summary record (optionally annotated with the fatal
/// signal number) and flushes. Claims the enabled flag, so exactly one of
/// {explicit Shutdown, atexit hook, signal handler} finalizes a run.
void FinalizeRun(int signal_number) {
  if (!g_enabled.exchange(false, std::memory_order_acq_rel)) return;

  // A still-running profiler flushes first (folded file + "profile"
  // record), before the summary: the summary marks the stream complete.
  // The drainer thread blocks SIGINT/SIGTERM, so joining it here is safe
  // from the signal handler. Same not-async-signal-safe trade-off as the
  // summary below.
  if (ProfilerRunning()) {
    if (Result<ProfileReport> profile = StopGlobalProfiler(); !profile.ok()) {
      CH_LOG(Warning) << "profiler flush failed: "
                      << profile.status().ToString();
    }
  }

  RecordSink* sink;
  std::uint64_t run_start;
  {
    const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
    sink = g_sink;
    run_start = g_run_start_nanos;
  }
  if (sink == nullptr) return;

  const double wall_ms =
      static_cast<double>(MonotonicNanos() - run_start) * 1e-6;
  const ProcessUsage usage = GetProcessUsage();
  const MetricsSnapshot snapshot = GlobalMetrics().TakeSnapshot();
  Record record("run_summary");
  record.Num("wall_ms", wall_ms);
  if (signal_number >= 0) record.Int("signal", signal_number);
  AppendUsage(usage, &record);
  // The run's memory headline, without summing per-span records:
  // process-wide allocation totals (every thread, exited ones included)
  // plus the peak RSS already sampled above.
  const AllocStats heap_totals = TotalAllocStats();
  record.Object("heap")
      .Int("cum_alloc_bytes", heap_totals.alloc_bytes)
      .Int("cum_allocs", heap_totals.allocs)
      .Int("cum_frees", heap_totals.frees)
      .Int("peak_rss_kb", usage.max_rss_kb)
      .End();
  snapshot.AppendJson("metrics", &record);
  sink->Write(record.Finish());
  sink->Flush();
}

/// Best-effort abnormal-termination hook: a killed Monte Carlo run
/// (Ctrl-C, job-manager SIGTERM) still leaves its run_summary in its
/// JSONL stream. Writing JSON from a signal handler is not async-signal-
/// safe; this is a deliberate tooling trade-off — the alternative is
/// losing hours of partial results, and the worst corruption is a
/// truncated last line, which every consumer here skips.
extern "C" void ChameleonObsSignalHandler(int sig) {
  FinalizeRun(sig);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void AtExitFinalize() { FinalizeRun(-1); }

}  // namespace

#if defined(__SANITIZE_THREAD__)
#define CHAMELEON_OBS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CHAMELEON_OBS_TSAN 1
#endif
#endif

#ifdef CHAMELEON_OBS_TSAN
/// TSan's report_signal_unsafe check flags the allocations the handler
/// above performs while composing the run_summary. That is the documented
/// trade-off, not a race: the process is terminating and re-raises the
/// signal immediately after. Default the check off so TSan builds exercise
/// the termination path; TSAN_OPTIONS in the environment still overrides.
extern "C" const char* __tsan_default_options();
extern "C" const char* __tsan_default_options() {
  return "report_signal_unsafe=0";
}
#endif

namespace {

/// Installed once per process, on first successful init.
void InstallTerminationHooks() {
  static const bool installed = [] {
    std::atexit(AtExitFinalize);
    std::signal(SIGINT, ChameleonObsSignalHandler);
    std::signal(SIGTERM, ChameleonObsSignalHandler);
    return true;
  }();
  static_cast<void>(installed);
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabledForTesting(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

MetricsRegistry& GlobalMetrics() { return MetricsRegistry::Global(); }

Tracer* GlobalTracer() {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  return g_tracer;
}

RecordSink* GlobalSink() {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  return g_sink;
}

Status InitObservability(const ObsOptions& options) {
  ShutdownObservability();

  std::string path = options.metrics_out;
  if (path.empty() && options.read_env) {
    if (const char* env = std::getenv("CHAMELEON_METRICS"); env != nullptr) {
      path = env;
    }
  }
  if (path.empty() && options.profiler) {
    path = "/dev/null";
  }
  if (path.empty()) return Status::OK();  // stays disabled

  Result<std::unique_ptr<JsonlFileSink>> sink = JsonlFileSink::Open(path);
  if (!sink.ok()) return sink.status();

  {
    const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
    RetiredRuns& retired = Retired();
    retired.sinks.push_back(*std::move(sink));
    g_sink = retired.sinks.back().get();
    retired.tracers.push_back(std::make_unique<Tracer>(g_sink));
    g_tracer = retired.tracers.back().get();
    g_run_start_nanos = MonotonicNanos();
  }
  InstallTerminationHooks();
  g_enabled.store(true, std::memory_order_release);
  CH_LOG(Info) << "observability enabled, metrics sink: " << path;

  if (options.profiler) {
    if (Status s = StartGlobalProfiler(*options.profiler); !s.ok()) {
      CH_LOG(Warning) << "profiler disabled: " << s.ToString();
    }
  }
  return Status::OK();
}

void ShutdownObservability() { FinalizeRun(-1); }

void AddObsFlags(FlagSet& flags) {
  flags.AddString("metrics_out", "",
                  "JSONL metrics/trace sink (also: $CHAMELEON_METRICS)");
  flags.AddString("profile", "",
                  "sample CPU for the whole run and write folded collapsed "
                  "stacks (flamegraph.pl input) to this path");
  flags.AddInt64("profile_hz", 99, "sampling frequency per CPU-second");
}

ObsOptions ObsOptionsFromFlags(const FlagSet& flags) {
  ObsOptions options;
  options.metrics_out = flags.GetString("metrics_out");
  // Clamped, not wrapped: a value that does not fit reaches the engine's
  // own range check (a warning) instead of turning into a valid one.
  if (const std::string& out = flags.GetString("profile"); !out.empty()) {
    ProfilerOptions& profiler = options.profiler.emplace();
    profiler.hz = static_cast<int>(std::clamp<std::int64_t>(
        flags.GetInt64("profile_hz"), std::numeric_limits<int>::min(),
        std::numeric_limits<int>::max()));
    profiler.folded_out = out;
  }
  return options;
}

void FinalizeRunForSignal(int signal_number) { FinalizeRun(signal_number); }

}  // namespace chameleon::obs
