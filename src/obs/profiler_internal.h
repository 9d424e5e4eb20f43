#ifndef CHAMELEON_SRC_OBS_PROFILER_INTERNAL_H_
#define CHAMELEON_SRC_OBS_PROFILER_INTERNAL_H_

// Internals shared between the sampling profiler and the crash handler:
// the async-signal-safe frame-pointer walker, the offline symbolizer,
// and per-thread stack bounds. src/obs-private — not installed, include
// only from src/obs translation units.

#include <cstdint>
#include <string>
#include <unordered_map>

// Disables sanitizer instrumentation for code that reads stack words
// that are not ordinary objects (saved-FP/return-address slots) or that
// runs in fatal-signal context, where ASan/TSan bookkeeping would
// misfire.
#if defined(__clang__) || defined(__GNUC__)
#define CHAMELEON_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#else
#define CHAMELEON_NO_SANITIZE
#endif

// The walker and symbolizer need Linux ucontext register layouts,
// dladdr, and pthread_getattr_np; everything degrades to stubs
// elsewhere, mirroring the profiler itself.
#if defined(__linux__)
#define CHAMELEON_PROFILER_IMPL 1
#else
#define CHAMELEON_PROFILER_IMPL 0
#endif

namespace chameleon::obs::internal {

#if CHAMELEON_PROFILER_IMPL

inline constexpr std::uint32_t kMaxWalkDepth = 40;

/// Async-signal-safe frame-pointer walk starting from the interrupted
/// context. Writes up to `max_depth` pcs (innermost first) and returns
/// the depth; every frame pointer is bounds-checked against
/// [stack_lo, stack_hi) before it is dereferenced.
std::uint32_t WalkStack(void* ucontext_raw, std::uintptr_t* pcs,
                        std::uint32_t max_depth, std::uintptr_t stack_lo,
                        std::uintptr_t stack_hi);

/// Best-effort name for a pc: demangled symbol, raw symbol, or
/// `module+0xoffset`. NOT async-signal-safe (dladdr + demangler
/// allocate); the crash handler calls it anyway as a documented
/// trade-off, the same doctrine as writing JSON from FinalizeRun.
std::string SymbolizePc(std::uintptr_t pc,
                        std::unordered_map<std::uintptr_t, std::string>* cache);

/// Stack bounds of the calling thread as registered with the profiler;
/// returns false (outputs untouched) when this thread never called
/// ProfilerRegisterCurrentThread().
bool CurrentThreadStackBounds(std::uintptr_t* lo, std::uintptr_t* hi);

#endif  // CHAMELEON_PROFILER_IMPL

}  // namespace chameleon::obs::internal

#endif  // CHAMELEON_SRC_OBS_PROFILER_INTERNAL_H_
