#ifndef CHAMELEON_OBS_CRASH_HANDLER_H_
#define CHAMELEON_OBS_CRASH_HANDLER_H_

/// Crash forensics: a fatal-signal handler for SIGSEGV / SIGABRT /
/// SIGBUS / SIGFPE that turns a dying process into evidence. On the
/// first fatal signal it writes to the JSONL stream:
///
///   1. a `crash` record — signal, faulting address, si_code, the
///      active span path, process rusage, and a symbolized
///      frame-pointer backtrace (reusing the profiler's walker and
///      symbolizer);
///   2. the signal-annotated `run_summary` (via FinalizeRunForSignal);
///
/// then restores the default disposition and re-raises, so the process
/// still dies by the original signal (correct wait status, core dumps
/// where ulimits allow).
///
/// Safety model, in two phases. Before the handler claims the one-shot
/// crash flag and arms a hard `alarm()` deadline, it is strictly
/// async-signal-safe: the stack walk is the profiler's bounds-checked
/// loop, no locks, no allocation. After the claim it deliberately
/// breaks the rules — symbolization and JSON composition allocate —
/// because the process is already dead and the alternative is learning
/// nothing from a multi-hour run. That is the same documented trade-off
/// as FinalizeRun on SIGINT; a handler that wedges (e.g. a lock held by
/// the crashed thread) is killed by a 5 s alarm, and SA_RESETHAND makes
/// a recursive fault die immediately by default disposition.

#include "chameleon/util/status.h"

namespace chameleon {
namespace obs {

/// Installs the handlers (idempotent). The one call every tool main()
/// makes right after flag parsing. Also registers the calling thread
/// with the profiler so its stack bounds are known to the walker.
/// Returns Unimplemented off Linux; tools treat that as a warning, not
/// an error.
Status InstallCrashHandler();

/// "SIGSEGV" / "SIGABRT" / "SIGBUS" / "SIGFPE", or "signal" for
/// anything else. Async-signal-safe (static strings).
const char* CrashSignalName(int signal_number);

}  // namespace obs
}  // namespace chameleon

#endif  // CHAMELEON_OBS_CRASH_HANDLER_H_
