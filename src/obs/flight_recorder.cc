#include "chameleon/obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "chameleon/obs/record.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon {
namespace obs {
namespace {

static_assert((kFlightRingCapacity & (kFlightRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

/// One thread's ring. Leaked into the registry for the process lifetime
/// (the profiler's ThreadState doctrine) so dumps can always read a
/// ring, even after its thread exited. `head` counts events ever
/// recorded and is the single published word: readers acquire it, the
/// writer release-stores it after filling the slot.
struct FlightThreadState {
  std::atomic<std::uint64_t> head{0};
  std::uint32_t thread_index = 0;
  FlightEvent ring[kFlightRingCapacity];
};

thread_local FlightThreadState* tls_flight = nullptr;

std::mutex& FlightRegistryMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<FlightThreadState*>& FlightRegistry() {
  static auto* registry = new std::vector<FlightThreadState*>();
  return *registry;
}

std::atomic<std::uint64_t> g_flight_recorded{0};

FlightThreadState* RegisterFlightThread() {
  auto* state = new FlightThreadState();  // leaked via the registry
  state->thread_index = CurrentThreadIndex();
  {
    const std::lock_guard<std::mutex> lock(FlightRegistryMu());
    FlightRegistry().push_back(state);
  }
  tls_flight = state;
  return state;
}

/// Copies the tail of one ring. Entries the writer lapped during the
/// copy are discarded (they were partially overwritten), so every
/// retained event is internally consistent without the writer ever
/// taking a lock.
FlightThreadSnapshot SnapshotOne(FlightThreadState* state) {
  FlightThreadSnapshot snapshot;
  snapshot.thread_index = state->thread_index;
  const std::uint64_t head1 = state->head.load(std::memory_order_acquire);
  const std::uint64_t kept = std::min<std::uint64_t>(head1, kFlightRingCapacity);
  const std::uint64_t begin = head1 - kept;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<std::size_t>(kept));
  std::vector<std::uint64_t> indices;
  indices.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = begin; i < head1; ++i) {
    events.push_back(state->ring[i & (kFlightRingCapacity - 1)]);
    indices.push_back(i);
  }
  const std::uint64_t head2 = state->head.load(std::memory_order_acquire);
  const std::uint64_t safe_begin =
      head2 > kFlightRingCapacity ? head2 - kFlightRingCapacity : 0;
  snapshot.recorded = head2;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (indices[i] >= safe_begin) snapshot.events.push_back(events[i]);
  }
  snapshot.dropped = snapshot.recorded - snapshot.events.size();
  return snapshot;
}

void AppendEvent(const FlightEvent& event, std::uint64_t now_ns,
                 JsonWriter* out) {
  const double age_s =
      now_ns > event.mono_ns
          ? static_cast<double>(now_ns - event.mono_ns) * 1e-9
          : 0.0;
  out->Object()
      .Num("age_s", age_s)
      .Str("kind", FlightEventKindName(event.kind))
      .Str("label", event.label)
      .Int("a", event.a)
      .Int("b", event.b);
  std::string path;
  if (event.span_path_id != 0 &&
      TrySpanPathForId(event.span_path_id, &path)) {
    out->Str("path", path);
  }
  out->End();
}

}  // namespace

std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kGeneric:
      return "generic";
    case FlightEventKind::kSpanOpen:
      return "span_open";
    case FlightEventKind::kSpanClose:
      return "span_close";
    case FlightEventKind::kCheckpoint:
      return "checkpoint";
    case FlightEventKind::kSeed:
      return "seed";
    case FlightEventKind::kGraphOp:
      return "graph_op";
  }
  return "unknown";
}

void RecordFlightEvent(FlightEventKind kind, std::string_view label,
                       std::uint64_t a, std::uint64_t b) {
  FlightThreadState* state = tls_flight;
  if (state == nullptr) state = RegisterFlightThread();
  const std::uint64_t head = state->head.load(std::memory_order_relaxed);
  FlightEvent& slot = state->ring[head & (kFlightRingCapacity - 1)];
  slot.mono_ns = MonotonicNanos();
  slot.a = a;
  slot.b = b;
  slot.span_path_id = CurrentSpanPathId();
  slot.kind = kind;
  const std::size_t n = std::min(label.size(), kFlightLabelCapacity - 1);
  std::memcpy(slot.label, label.data(), n);
  slot.label[n] = '\0';
  state->head.store(head + 1, std::memory_order_release);
  g_flight_recorded.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FlightEventsRecorded() {
  return g_flight_recorded.load(std::memory_order_relaxed);
}

std::vector<FlightThreadSnapshot> SnapshotFlightRecorder() {
  std::vector<FlightThreadState*> states;
  {
    const std::lock_guard<std::mutex> lock(FlightRegistryMu());
    states = FlightRegistry();
  }
  std::vector<FlightThreadSnapshot> snapshots;
  snapshots.reserve(states.size());
  for (FlightThreadState* state : states) {
    snapshots.push_back(SnapshotOne(state));
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const FlightThreadSnapshot& a, const FlightThreadSnapshot& b) {
              return a.thread_index < b.thread_index;
            });
  return snapshots;
}

std::string FlightDumpJson(int signal_number) {
  const std::uint64_t now_ns = MonotonicNanos();
  const std::vector<FlightThreadSnapshot> snapshots = SnapshotFlightRecorder();

  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::size_t kept = 0;
  for (const FlightThreadSnapshot& snapshot : snapshots) {
    recorded += snapshot.recorded;
    dropped += snapshot.dropped;
    kept += snapshot.events.size();
  }

  Record record("flight_event_dump");
  if (signal_number >= 0) record.Int("signal", signal_number);
  record.Int("threads", snapshots.size())
      .Int("events", kept)
      .Int("recorded", recorded)
      .Int("dropped", dropped);

  // Merged, time-ordered human tail across all threads: the "what was
  // it doing just before it died" view.
  struct TailEntry {
    std::uint64_t mono_ns;
    std::uint32_t thread_index;
    const FlightEvent* event;
  };
  std::vector<TailEntry> tail;
  tail.reserve(kept);
  for (const FlightThreadSnapshot& snapshot : snapshots) {
    for (const FlightEvent& event : snapshot.events) {
      tail.push_back(TailEntry{event.mono_ns, snapshot.thread_index, &event});
    }
  }
  std::sort(tail.begin(), tail.end(),
            [](const TailEntry& a, const TailEntry& b) {
              return a.mono_ns < b.mono_ns;
            });
  constexpr std::size_t kTailEntries = 32;
  const std::size_t tail_begin =
      tail.size() > kTailEntries ? tail.size() - kTailEntries : 0;
  record.Array("tail");
  for (std::size_t i = tail_begin; i < tail.size(); ++i) {
    const TailEntry& entry = tail[i];
    const double age_s =
        now_ns > entry.mono_ns
            ? static_cast<double>(now_ns - entry.mono_ns) * 1e-9
            : 0.0;
    record.Str(StrFormat(
        "-%.3fs tid%u %.*s %s a=%llu b=%llu", age_s, entry.thread_index,
        static_cast<int>(FlightEventKindName(entry.event->kind).size()),
        FlightEventKindName(entry.event->kind).data(), entry.event->label,
        static_cast<unsigned long long>(entry.event->a),
        static_cast<unsigned long long>(entry.event->b)));
  }
  record.End().Array("rings");
  for (const FlightThreadSnapshot& snapshot : snapshots) {
    record.Object()
        .Int("tid", snapshot.thread_index)
        .Int("recorded", snapshot.recorded)
        .Int("dropped", snapshot.dropped)
        .Array("events");
    const std::size_t begin =
        snapshot.events.size() > kFlightDumpEventsPerThread
            ? snapshot.events.size() - kFlightDumpEventsPerThread
            : 0;
    for (std::size_t i = begin; i < snapshot.events.size(); ++i) {
      AppendEvent(snapshot.events[i], now_ns, &record);
    }
    record.End().End();
  }
  return record.Finish();
}

void EmitFlightRecorderDump(RecordSink* sink, int signal_number) {
  if (sink == nullptr) return;
  if (FlightEventsRecorded() == 0) return;
  sink->Write(FlightDumpJson(signal_number));
  sink->Flush();
}

}  // namespace obs
}  // namespace chameleon
