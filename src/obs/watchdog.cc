#include "chameleon/obs/watchdog.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon {
namespace obs {
namespace {

/// Singleton control block, leaked like the profiler's so a watchdog
/// stopped during teardown never touches destructed state.
struct WatchdogControl {
  std::mutex mu;
  bool running = false;
  WatchdogOptions options;
  std::thread thread;
  std::atomic<bool> stop{false};
  std::condition_variable cv;
};

WatchdogControl& Control() {
  static auto* control = new WatchdogControl();
  return *control;
}

/// Stall threshold the health view judges against: the running
/// watchdog's, else the compiled default.
double CurrentStallSeconds() {
  WatchdogControl& control = Control();
  const std::lock_guard<std::mutex> lock(control.mu);
  return control.running ? control.options.stall_seconds
                         : WatchdogOptions{}.stall_seconds;
}

/// Innermost open span per thread (LiveSpans reports the whole open
/// stack, sorted by tid then start; the deepest per tid is the phase
/// that should be moving), joined with that thread's last flight-event
/// timestamp.
std::vector<PhaseHealth> ComputePhaseHealth(double stall_seconds) {
  const std::uint64_t now_ns = MonotonicNanos();
  std::unordered_map<std::uint32_t, std::uint64_t> last_activity;
  for (const FlightThreadActivity& activity : FlightRecorderActivity()) {
    last_activity[activity.thread_index] =
        std::max(last_activity[activity.thread_index],
                 activity.last_event_ns);
  }
  std::map<std::uint32_t, LiveSpanEntry> innermost;
  for (const LiveSpanEntry& entry : LiveSpans()) {
    auto [it, inserted] = innermost.emplace(entry.tid, entry);
    if (!inserted && entry.start_nanos > it->second.start_nanos) {
      it->second = entry;
    }
  }
  std::vector<PhaseHealth> phases;
  phases.reserve(innermost.size());
  for (const auto& [tid, entry] : innermost) {
    PhaseHealth phase;
    phase.path = entry.path;
    phase.tid = tid;
    std::uint64_t last_ns = entry.start_nanos;
    if (const auto it = last_activity.find(tid); it != last_activity.end()) {
      last_ns = std::max(last_ns, it->second);
    }
    phase.open_seconds =
        now_ns > entry.start_nanos
            ? static_cast<double>(now_ns - entry.start_nanos) * 1e-9
            : 0.0;
    phase.idle_seconds =
        now_ns > last_ns ? static_cast<double>(now_ns - last_ns) * 1e-9 : 0.0;
    phase.stalled = phase.idle_seconds > stall_seconds;
    phases.push_back(std::move(phase));
  }
  return phases;
}

void EmitStallRecord(const PhaseHealth& phase, const WatchdogOptions& options,
                     bool aborting) {
  RecordSink* sink =
      options.sink != nullptr ? options.sink : GlobalSink();
  if (sink == nullptr) return;
  sink->Write(Record("watchdog_stall")
                  .Str("path", phase.path)
                  .Int("tid", phase.tid)
                  .Num("idle_ms", phase.idle_seconds * 1e3)
                  .Num("open_ms", phase.open_seconds * 1e3)
                  .Num("stall_seconds", options.stall_seconds)
                  .Bool("aborting", aborting)
                  .Finish());
  sink->Flush();
}

void WatchdogMain(WatchdogOptions options) {
  // The obs termination hooks must never run on this thread: they stop
  // (join) the watchdog, and a handler landing here would self-join.
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGINT);
  sigaddset(&blocked, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);

  double poll_s = options.poll_interval_seconds;
  if (poll_s <= 0.0) {
    poll_s = std::clamp(options.stall_seconds / 4.0, 0.05, 1.0);
  }

  // Stall onset time per (tid, path); erased once the phase moves or
  // closes, so a phase that stalls, recovers, and stalls again reports
  // twice.
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> stalls;

  WatchdogControl& control = Control();
  while (!control.stop.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(control.mu);
      control.cv.wait_for(
          lock, std::chrono::duration<double>(poll_s),
          [&] { return control.stop.load(std::memory_order_acquire); });
    }
    if (control.stop.load(std::memory_order_acquire)) break;

    const std::uint64_t now_ns = MonotonicNanos();
    const std::vector<PhaseHealth> phases =
        ComputePhaseHealth(options.stall_seconds);

    // Drop bookkeeping for phases that moved or went away.
    for (auto it = stalls.begin(); it != stalls.end();) {
      const auto matches = [&](const PhaseHealth& phase) {
        return phase.tid == it->first.first && phase.path == it->first.second &&
               phase.stalled;
      };
      if (std::any_of(phases.begin(), phases.end(), matches)) {
        ++it;
      } else {
        it = stalls.erase(it);
      }
    }

    for (const PhaseHealth& phase : phases) {
      if (!phase.stalled) continue;
      const auto key = std::make_pair(phase.tid, phase.path);
      const auto it = stalls.find(key);
      if (it == stalls.end()) {
        stalls.emplace(key, now_ns);
        EmitStallRecord(phase, options, /*aborting=*/false);
        CH_LOG(Warning) << "watchdog: no progress in [" << phase.path
                        << "] for " << StrFormat("%.1f", phase.idle_seconds)
                        << " s";
      } else if (options.abort_after_seconds > 0.0 &&
                 static_cast<double>(now_ns - it->second) * 1e-9 >
                     options.abort_after_seconds) {
        EmitStallRecord(phase, options, /*aborting=*/true);
        CH_LOG(Error) << "watchdog: [" << phase.path
                      << "] still stalled, raising SIGABRT for forensics";
        // The crash handler (if installed) writes the backtrace + ring
        // dump; otherwise the default disposition just kills the hang.
        raise(SIGABRT);
        return;
      }
    }
  }
}

}  // namespace

Status StartGlobalWatchdog(const WatchdogOptions& options) {
  if (!(options.stall_seconds > 0.0)) {
    return Status::InvalidArgument("watchdog stall interval must be > 0");
  }
  WatchdogControl& control = Control();
  const std::lock_guard<std::mutex> lock(control.mu);
  if (control.running) {
    return Status::FailedPrecondition("watchdog already running");
  }
  control.options = options;
  control.stop.store(false, std::memory_order_release);
  control.thread = std::thread(WatchdogMain, options);
  control.running = true;
  CH_LOG(Info) << "watchdog armed: stall after "
               << StrFormat("%.1f", options.stall_seconds) << " s"
               << (options.abort_after_seconds > 0.0
                       ? StrFormat(", SIGABRT %.1f s later",
                                   options.abort_after_seconds)
                       : std::string());
  return Status::OK();
}

void StopGlobalWatchdog() {
  WatchdogControl& control = Control();
  std::thread thread;
  {
    const std::lock_guard<std::mutex> lock(control.mu);
    if (!control.running) return;
    control.stop.store(true, std::memory_order_release);
    control.cv.notify_all();
    thread = std::move(control.thread);
    control.running = false;
  }
  if (!thread.joinable()) return;
  if (thread.get_id() == std::this_thread::get_id()) {
    // Crash path: after the SIGABRT escalation the crash handler runs
    // FinalizeRun on the watchdog thread itself — a join here would be
    // a self-join. The thread never outlives the handler (it re-raises
    // a fatal signal), so detaching is safe.
    thread.detach();
    return;
  }
  thread.join();
}

bool WatchdogRunning() {
  WatchdogControl& control = Control();
  const std::lock_guard<std::mutex> lock(control.mu);
  return control.running;
}

std::vector<PhaseHealth> WatchdogPhaseHealth() {
  return ComputePhaseHealth(CurrentStallSeconds());
}

std::string HealthzText() {
  WatchdogControl& control = Control();
  double stall_seconds;
  bool running;
  double abort_after;
  {
    const std::lock_guard<std::mutex> lock(control.mu);
    running = control.running;
    stall_seconds = control.running ? control.options.stall_seconds
                                    : WatchdogOptions{}.stall_seconds;
    abort_after = control.running ? control.options.abort_after_seconds : 0.0;
  }
  std::string text = "chameleon healthz\n";
  if (running) {
    text += StrFormat("watchdog: running (stall after %.1f s%s)\n",
                      stall_seconds,
                      abort_after > 0.0
                          ? StrFormat(", abort %.1f s later", abort_after)
                              .c_str()
                          : "");
  } else {
    text += "watchdog: not running\n";
  }
  const std::vector<PhaseHealth> phases = ComputePhaseHealth(stall_seconds);
  bool any_stalled = false;
  if (phases.empty()) {
    text += "phases: none open\n";
  } else {
    text += "phases:\n";
    for (const PhaseHealth& phase : phases) {
      any_stalled = any_stalled || phase.stalled;
      text += StrFormat("  tid %u  %s  open %.1f s  idle %.1f s  %s\n",
                        phase.tid, phase.path.c_str(), phase.open_seconds,
                        phase.idle_seconds,
                        phase.stalled ? "STALLED" : "OK");
    }
  }
  text += any_stalled ? "overall: STALLED\n" : "overall: OK\n";
  return text;
}

}  // namespace obs
}  // namespace chameleon
