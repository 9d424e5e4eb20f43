#ifndef CHAMELEON_OBS_FLIGHT_RECORDER_H_
#define CHAMELEON_OBS_FLIGHT_RECORDER_H_

/// Flight recorder: a fixed-size, lock-free, per-thread ring of recent
/// structured events — span enter/exit, estimator checkpoints, RNG
/// seeds, graph ops — kept purely in memory so that a crash or a wedged
/// phase can dump "what was this process doing just now" after the
/// fact. The black-box counterpart to the live /statusz page.
///
/// Recording is a handful of relaxed stores into a thread-owned slot
/// (no locks, no allocation after a thread's first event), so the
/// instrumented call sites stay hot-path safe; when observability is
/// disabled the CHOBS_FLIGHT_EVENT macro is one relaxed load and a
/// branch (budget-gated by chameleon_bench_overhead). Each ring
/// overwrites its oldest entry when full and counts what it evicted, so
/// dumps always disclose `dropped`.
///
/// Consumers:
///  - the crash handler and signal-death FinalizeRun path emit a
///    `flight_event_dump` JSONL record (see sink.h);
///  - the stall watchdog reads per-thread last-activity timestamps to
///    decide whether a phase is still making progress.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/obs/sink.h"

namespace chameleon {
namespace obs {

bool Enabled();  // defined in obs.cc; redeclared so the macro below
                 // works without pulling in all of obs.h

/// Ring capacity per thread (power of two; the newest
/// kFlightRingCapacity events survive).
inline constexpr std::uint32_t kFlightRingCapacity = 256;

/// Label bytes kept per event, including the terminating NUL; longer
/// labels are truncated.
inline constexpr std::size_t kFlightLabelCapacity = 48;

enum class FlightEventKind : std::uint8_t {
  kGeneric = 0,
  kSpanOpen = 1,
  kSpanClose = 2,
  kCheckpoint = 3,  ///< heartbeat / estimator progress emit
  kSeed = 4,        ///< RNG seed recorded in the run manifest
  kGraphOp = 5,     ///< graph load / write / summary
};

/// Stable lowercase name for a kind ("span_open", "checkpoint", ...).
std::string_view FlightEventKindName(FlightEventKind kind);

/// One recorded event. POD: written in place inside the ring by the
/// owning thread, copied out wholesale by snapshots.
struct FlightEvent {
  std::uint64_t mono_ns = 0;      ///< MonotonicNanos() at record time
  std::uint64_t a = 0;            ///< kind-specific payload (e.g. done)
  std::uint64_t b = 0;            ///< kind-specific payload (e.g. total)
  std::uint32_t span_path_id = 0; ///< active span path (0 = none)
  FlightEventKind kind = FlightEventKind::kGeneric;
  char label[kFlightLabelCapacity] = {};
};

/// Records one event into the calling thread's ring. Registers the
/// thread (one mutex grab + allocation) on its first event; every
/// subsequent call is lock-free. Callers normally go through
/// CHOBS_FLIGHT_EVENT, which also gates on Enabled().
void RecordFlightEvent(FlightEventKind kind, std::string_view label,
                       std::uint64_t a = 0, std::uint64_t b = 0);

/// Total events ever recorded, process-wide (relaxed counter). The
/// dormant-overhead bench and tests use this to observe activity.
std::uint64_t FlightEventsRecorded();

/// Everything a reader can learn about one thread's ring.
struct FlightThreadSnapshot {
  std::uint32_t thread_index = 0;  ///< CurrentThreadIndex() of the owner
  std::uint64_t recorded = 0;      ///< events ever recorded on this thread
  std::uint64_t dropped = 0;       ///< evicted by ring wrap-around
  std::uint64_t last_event_ns = 0; ///< MonotonicNanos() of newest event
  std::vector<FlightEvent> events; ///< oldest -> newest, <= capacity
};

/// Copies every registered ring. Safe to call at any time, but slots
/// being overwritten concurrently are best-effort: entries the writer
/// lapped during the copy are discarded, so a snapshot may briefly hold
/// fewer than `recorded - dropped` events. Intended for crash dumps,
/// shutdown, and tests — not for hot-path polling.
std::vector<FlightThreadSnapshot> SnapshotFlightRecorder();

/// Per-thread activity pulse for the watchdog: atomics only, never
/// touches ring slots.
struct FlightThreadActivity {
  std::uint32_t thread_index = 0;
  std::uint64_t recorded = 0;
  std::uint64_t last_event_ns = 0;
};
std::vector<FlightThreadActivity> FlightRecorderActivity();

/// Renders one `flight_event_dump` JSONL record: per-thread ring tails
/// (newest kFlightDumpEventsPerThread events each) plus a merged,
/// time-ordered human-readable `tail` array. `signal_number` >= 0 marks
/// a dump taken on the way out of a fatal signal.
inline constexpr std::size_t kFlightDumpEventsPerThread = 64;
std::string FlightDumpJson(int signal_number);

/// Writes FlightDumpJson to `sink` (no-op when sink is null or nothing
/// was ever recorded) and flushes.
void EmitFlightRecorderDump(RecordSink* sink, int signal_number);

}  // namespace obs
}  // namespace chameleon

#ifndef CHAMELEON_OBS_ENABLED
#define CHAMELEON_OBS_ENABLED 1
#endif

#if CHAMELEON_OBS_ENABLED

/// Records a flight event when observability is enabled; dormant cost
/// is one relaxed load + branch. `kind` is a bare FlightEventKind
/// enumerator token (kCheckpoint, kGraphOp, ...).
#define CHOBS_FLIGHT_EVENT(kind, label, a, b)                               \
  do {                                                                      \
    if (::chameleon::obs::Enabled()) {                                      \
      ::chameleon::obs::RecordFlightEvent(                                  \
          ::chameleon::obs::FlightEventKind::kind, (label),                 \
          static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b));    \
    }                                                                       \
  } while (0)

#else  // !CHAMELEON_OBS_ENABLED

#define CHOBS_FLIGHT_EVENT(kind, label, a, b) \
  do {                                        \
  } while (0)

#endif  // CHAMELEON_OBS_ENABLED

#endif  // CHAMELEON_OBS_FLIGHT_RECORDER_H_
