#ifndef CHAMELEON_OBS_OBS_H_
#define CHAMELEON_OBS_OBS_H_

#include <optional>
#include <string>

#include "chameleon/obs/metrics.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/obs/progress.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/status.h"

/// \file obs.h
/// Umbrella header and process lifecycle for the observability layer.
///
/// Instrumentation is always compiled in but dormant (one relaxed
/// atomic load per macro hit) until InitObservability() configures a
/// sink — from the `--metrics_out=` flag or the CHAMELEON_METRICS
/// environment variable.
///
/// Typical tool main():
///   FlagSet flags("my_tool: ...");
///   obs::AddObsFlags(flags);          // --metrics_out, --profile, ...
///   if (auto exit = obs::ParseToolFlags(flags, "my_tool", argc, argv)) {
///     return *exit;                   // usage error, --help, --version
///   }
///   if (Status s = obs::InitObservability(obs::ObsOptionsFromFlags(flags));
///       !s.ok()) { ... exit 1 ... }
///   ... run phases ...
///   obs::ShutdownObservability();   // writes the final run_summary

namespace chameleon {
class FlagSet;
}  // namespace chameleon

namespace chameleon::obs {

/// One run's observability: the sink, and the profiler that samples the
/// run. InitObservability starts the profiler, when set, after the sink;
/// ShutdownObservability (and the termination hooks) stop it.
struct ObsOptions {
  /// JSONL output path. Empty: fall back to $CHAMELEON_METRICS (when
  /// `read_env`); still empty: observability stays disabled.
  std::string metrics_out;
  bool read_env = true;
  /// Whole-run sampling CPU profile.
  std::optional<ProfilerOptions> profiler;
};

/// Configures the global sink/tracer, flips the runtime switch, then
/// starts the profiler if `options` names one. The profiler attributes
/// samples to open spans, so a run that requests it without a metrics
/// path (flag or environment) writes its stream to /dev/null.
/// Calling it again tears the previous run down (final summary
/// included) and starts a new one. Returns IoError when the sink path is
/// not writable; the process is left disabled. A profiler that refuses
/// to start (bad argument, non-Linux host) is a logged warning: the run
/// goes on without it.
///
/// The first successful init also installs abnormal-termination hooks
/// (atexit + SIGINT/SIGTERM) that write the final run_summary and flush
/// the sink, so a killed Monte Carlo run still leaves a usable partial
/// record. A signal-triggered summary carries a `"signal":N` field and
/// the process still dies by that signal afterwards.
Status InitObservability(const ObsOptions& options = {});

/// Emits the "run_summary" record (total wall time + the registry's
/// counters), flushes the sink, and disables the runtime switch.
/// No-op when disabled.
void ShutdownObservability();

/// Registers the observability flags the CLIs share: --metrics_out,
/// --profile, --profile_hz.
void AddObsFlags(FlagSet& flags);

/// The ObsOptions those flags select (parsed FlagSet from AddObsFlags).
/// The profiler is set only when its flag asks for it: a non-empty
/// --profile path.
ObsOptions ObsOptionsFromFlags(const FlagSet& flags);

/// Finalizes the run exactly as the termination hooks do on a fatal
/// signal: stops the profiler, then writes a run_summary annotated with
/// `signal_number` (>= 0). Idempotent (the first finalizer wins). The
/// crash handler calls this after its `crash` record; normal code wants
/// ShutdownObservability() instead.
void FinalizeRunForSignal(int signal_number);

/// Runtime switch; one relaxed atomic load.
bool Enabled();

/// The registry behind CHOBS_COUNT (always usable, even when
/// disabled — tests drive it directly).
MetricsRegistry& GlobalMetrics();

/// Global tracer / sink; null until InitObservability() succeeds.
Tracer* GlobalTracer();
RecordSink* GlobalSink();

/// Test hook: flips the runtime switch without touching sink/tracer.
void SetEnabledForTesting(bool enabled);

}  // namespace chameleon::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. Library code uses these, never the classes
// directly, so each hit costs one relaxed load while observability is off.
// ---------------------------------------------------------------------------

/// Adds `delta` to counter `name` (no-op while disabled).
#define CHOBS_COUNT(name, delta)                              \
  do {                                                        \
    if (::chameleon::obs::Enabled()) {                        \
      ::chameleon::obs::GlobalMetrics().Count((name), (delta)); \
    }                                                         \
  } while (0)

/// Declares an RAII trace span named `var` on the global tracer.
#define CHOBS_SPAN(var, ...) ::chameleon::obs::TraceSpan var{__VA_ARGS__}

#endif  // CHAMELEON_OBS_OBS_H_
