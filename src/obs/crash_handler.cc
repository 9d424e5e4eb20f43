#include "chameleon/obs/crash_handler.h"

#include "profiler_internal.h"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/string_util.h"

#if CHAMELEON_PROFILER_IMPL
#include <pthread.h>
#include <signal.h>
#include <ucontext.h>
#include <unistd.h>
#endif

namespace chameleon {
namespace obs {

const char* CrashSignalName(int signal_number) {
  switch (signal_number) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGFPE:
      return "SIGFPE";
#ifdef SIGBUS
    case SIGBUS:
      return "SIGBUS";
#endif
    default:
      return "signal";
  }
}

#if CHAMELEON_PROFILER_IMPL

namespace {

constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};

/// Hard deadline, in seconds, between handler entry and process death:
/// alarm() with default SIGALRM disposition kills the process if
/// forensics wedge on a lock the crashed thread held.
constexpr unsigned kDeadlineSeconds = 5;

std::atomic<bool> g_crash_claimed{false};

/// Alternate signal stack for the installing thread, so a stack
/// overflow on the main thread still reaches the handler. Worker
/// threads without an altstack fall back to their normal stack, which
/// is fine for every fault except overflow. Static, never freed.
alignas(16) unsigned char g_altstack[64 * 1024];

/// Frame pointer of the interrupted context: the fallback stack-bounds
/// anchor for threads that never registered with the profiler.
std::uintptr_t ContextFramePointer(void* ucontext_raw) {
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
  return static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  static_cast<void>(ucontext_raw);
  return 0;
#endif
}

/// Post-claim forensics: composes and writes the `crash` record. Not
/// async-signal-safe (allocation, symbolization, sink mutex) — see the
/// header's safety model; the alarm() deadline bounds the damage.
void WriteCrashRecord(int sig, siginfo_t* info, const std::uintptr_t* pcs,
                      std::uint32_t depth, std::uint32_t span_path_id) {
  Record record("crash");
  record.Int("signal", sig)
      .Str("signal_name", CrashSignalName(sig))
      .Int("si_code", info != nullptr ? info->si_code : 0)
      .Int("tid", CurrentThreadIndex());
  if (info != nullptr && (sig == SIGSEGV || sig == SIGBUS || sig == SIGFPE)) {
    record.Str("fault_addr",
               StrFormat("0x%llx",
                         static_cast<unsigned long long>(
                             reinterpret_cast<std::uintptr_t>(info->si_addr))));
  }
  std::string span_path;
  if (TrySpanPathForId(span_path_id, &span_path)) {
    record.Str("span_path", span_path);
  }

  std::unordered_map<std::uintptr_t, std::string> cache;
  record.Array("frames");
  for (std::uint32_t i = 0; i < depth; ++i) {
    record.Str(internal::SymbolizePc(pcs[i], &cache));
  }
  record.End();
  AppendUsage(GetProcessUsage(), &record);

  if (RecordSink* sink = GlobalSink(); sink != nullptr) {
    sink->Write(record.Finish());
    sink->Flush();
  }

  // Human-readable copy on stderr, whether or not a sink exists.
  std::fprintf(stderr, "chameleon: fatal %s (signal %d)", CrashSignalName(sig),
               sig);
  if (!span_path.empty()) {
    std::fprintf(stderr, " in span %s", span_path.c_str());
  }
  std::fprintf(stderr, "\n");
  for (std::uint32_t i = 0; i < depth; ++i) {
    std::fprintf(stderr, "  #%u %s\n", i,
                 internal::SymbolizePc(pcs[i], &cache).c_str());
  }
}

extern "C" CHAMELEON_NO_SANITIZE void ChameleonCrashSignalHandler(
    int sig, siginfo_t* info, void* ucontext_raw) {
  // --- async-signal-safe prologue: capture everything volatile ---
  std::uintptr_t pcs[internal::kMaxWalkDepth];
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  if (!internal::CurrentThreadStackBounds(&stack_lo, &stack_hi)) {
    // Unregistered thread: a conservative window above the interrupted
    // frame pointer still lets the walker make bounded progress.
    const std::uintptr_t fp = ContextFramePointer(ucontext_raw);
    if (fp != 0) {
      stack_lo = fp;
      stack_hi = fp + 256 * 1024;
    }
  }
  const std::uint32_t depth = internal::WalkStack(
      ucontext_raw, pcs, internal::kMaxWalkDepth, stack_lo, stack_hi);
  const std::uint32_t span_path_id = CurrentSpanPathId();

  // One thread writes forensics; any other crashing thread just parks
  // until the first one re-raises (SA_RESETHAND already restored the
  // default disposition, so a recursive fault dies immediately).
  if (g_crash_claimed.exchange(true, std::memory_order_acq_rel)) {
    for (;;) pause();
  }
  // Hard deadline: if forensics wedge (a lock held by the crashed
  // thread), SIGALRM's default disposition kills the process.
  ::alarm(kDeadlineSeconds);

  // --- post-claim forensics: best-effort, documented trade-off ---
  WriteCrashRecord(sig, info, pcs, depth, span_path_id);
  FinalizeRunForSignal(sig);

  // Die by the original signal for a correct wait status.
  signal(sig, SIG_DFL);
  sigset_t unblock;
  sigemptyset(&unblock);
  sigaddset(&unblock, sig);
  pthread_sigmask(SIG_UNBLOCK, &unblock, nullptr);
  raise(sig);
}

}  // namespace

Status InstallCrashHandler() {
  // Known stack bounds for the walker before anything can crash.
  ProfilerRegisterCurrentThread();

  stack_t altstack = {};
  altstack.ss_sp = g_altstack;
  altstack.ss_size = sizeof(g_altstack);
  sigaltstack(&altstack, nullptr);  // best-effort; ONSTACK degrades

  struct sigaction action = {};
  action.sa_sigaction = ChameleonCrashSignalHandler;
  // SA_RESETHAND sets the sign bit on glibc; the cast is value-exact.
  action.sa_flags = static_cast<int>(
      static_cast<unsigned>(SA_SIGINFO) | static_cast<unsigned>(SA_ONSTACK) |
      static_cast<unsigned>(SA_RESETHAND));
  sigemptyset(&action.sa_mask);
  // Hold the sibling crash signals while forensics run, so a secondary
  // fault in another signal can only hit the claimed branch.
  for (const int sig : kCrashSignals) sigaddset(&action.sa_mask, sig);
  for (const int sig : kCrashSignals) {
    if (sigaction(sig, &action, nullptr) != 0) {
      return Status::Internal(
          StrFormat("sigaction(%s) failed", CrashSignalName(sig)));
    }
  }
  return Status::OK();
}

#else  // !CHAMELEON_PROFILER_IMPL

Status InstallCrashHandler() {
  return Status::Unimplemented(
      "crash forensics require Linux signal/ucontext support");
}

#endif  // CHAMELEON_PROFILER_IMPL

}  // namespace obs
}  // namespace chameleon
