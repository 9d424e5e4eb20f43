// Flight-recorder ring semantics: overwrite-oldest with drop
// accounting, label truncation, dormant no-op through the macro, and a
// well-formed flight_event_dump record. The concurrent case hammers
// four writer threads and snapshots after they quiesce, which is the
// pattern the crash/shutdown consumers use (dump after the world
// stopped) — it doubles as the TSan exercise for the lock-free path.

#include "chameleon/obs/flight_recorder.h"

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

/// Snapshot of the calling thread's ring, identified by the label
/// prefix its events carry (rings persist across tests in this binary,
/// so tests use distinct labels instead of assuming a fresh ring).
FlightThreadSnapshot SnapshotWithLabel(const std::string& prefix) {
  for (const FlightThreadSnapshot& snapshot : SnapshotFlightRecorder()) {
    for (const FlightEvent& event : snapshot.events) {
      if (std::string(event.label).rfind(prefix, 0) == 0) return snapshot;
    }
  }
  return {};
}

TEST(FlightRecorderTest, OverflowKeepsNewestAndCountsDropped) {
  const std::uint64_t before = FlightEventsRecorded();
  const std::uint32_t total = kFlightRingCapacity + 100;
  for (std::uint32_t i = 0; i < total; ++i) {
    RecordFlightEvent(FlightEventKind::kGeneric,
                      "overflow_" + std::to_string(i), i, 0);
  }
  EXPECT_EQ(FlightEventsRecorded(), before + total);

  const FlightThreadSnapshot snapshot = SnapshotWithLabel("overflow_");
  ASSERT_FALSE(snapshot.events.empty());
  EXPECT_LE(snapshot.events.size(), kFlightRingCapacity);
  EXPECT_GE(snapshot.recorded, total);
  EXPECT_EQ(snapshot.dropped, snapshot.recorded - snapshot.events.size());
  EXPECT_GE(snapshot.dropped, 100u);
  // Newest event survives; the first 100 were overwritten.
  const FlightEvent& newest = snapshot.events.back();
  EXPECT_EQ(std::string(newest.label),
            "overflow_" + std::to_string(total - 1));
  EXPECT_EQ(newest.a, total - 1);
  for (const FlightEvent& event : snapshot.events) {
    EXPECT_NE(std::string(event.label), "overflow_0");
  }
}

TEST(FlightRecorderTest, EventsCarryMonotoneTimestamps) {
  RecordFlightEvent(FlightEventKind::kCheckpoint, "mono_a", 1, 2);
  RecordFlightEvent(FlightEventKind::kCheckpoint, "mono_b", 3, 4);
  const FlightThreadSnapshot snapshot = SnapshotWithLabel("mono_");
  ASSERT_GE(snapshot.events.size(), 2u);
  for (std::size_t i = 1; i < snapshot.events.size(); ++i) {
    EXPECT_LE(snapshot.events[i - 1].mono_ns, snapshot.events[i].mono_ns);
  }
}

TEST(FlightRecorderTest, LongLabelsAreTruncatedNotOverrun) {
  const std::string longlabel = "truncate_" + std::string(100, 'x');
  RecordFlightEvent(FlightEventKind::kGeneric, longlabel, 0, 0);
  const FlightThreadSnapshot snapshot = SnapshotWithLabel("truncate_");
  ASSERT_FALSE(snapshot.events.empty());
  const FlightEvent& event = snapshot.events.back();
  EXPECT_EQ(std::strlen(event.label), kFlightLabelCapacity - 1);
  EXPECT_EQ(std::string(event.label),
            longlabel.substr(0, kFlightLabelCapacity - 1));
}

TEST(FlightRecorderTest, ConcurrentWritersNeverCorruptSnapshots) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  const std::uint64_t before = FlightEventsRecorded();
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      const std::string label = "writer" + std::to_string(t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        RecordFlightEvent(FlightEventKind::kGeneric, label, i, 0);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(FlightEventsRecorded(), before + kThreads * kPerThread);

  // After quiesce every writer ring holds exactly the newest capacity
  // worth of its events, all internally consistent.
  int writer_rings = 0;
  for (const FlightThreadSnapshot& snapshot : SnapshotFlightRecorder()) {
    if (snapshot.events.empty()) continue;
    const std::string label(snapshot.events.back().label);
    if (label.rfind("writer", 0) != 0) continue;
    ++writer_rings;
    EXPECT_EQ(snapshot.recorded, kPerThread);
    EXPECT_EQ(snapshot.events.size(), kFlightRingCapacity);
    EXPECT_EQ(snapshot.dropped, kPerThread - kFlightRingCapacity);
    EXPECT_EQ(snapshot.events.back().a, kPerThread - 1);
    for (const FlightEvent& event : snapshot.events) {
      EXPECT_EQ(std::string(event.label), label);
    }
  }
  EXPECT_EQ(writer_rings, kThreads);
}

TEST(FlightRecorderTest, MacroIsDormantWhenDisabled) {
  SetEnabledForTesting(false);
  const std::uint64_t before = FlightEventsRecorded();
  CHOBS_FLIGHT_EVENT(kGeneric, "dormant", 1, 2);
  EXPECT_EQ(FlightEventsRecorded(), before);

  SetEnabledForTesting(true);
  CHOBS_FLIGHT_EVENT(kGeneric, "awake", 3, 4);
  SetEnabledForTesting(false);
  EXPECT_EQ(FlightEventsRecorded(), before + 1);
}

TEST(FlightRecorderTest, DumpRecordIsWellFormed) {
  RecordFlightEvent(FlightEventKind::kSeed, "dump_seed", 2018, 0);
  MemorySink sink;
  EmitFlightRecorderDump(&sink, SIGSEGV);
  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines.front();
  EXPECT_EQ(JsonlStringField(line, "type"), "flight_event_dump");
  EXPECT_EQ(JsonlNumberField(line, "signal"), SIGSEGV);
  EXPECT_GE(JsonlNumberField(line, "threads").value_or(0.0), 1.0);
  EXPECT_GE(JsonlNumberField(line, "events").value_or(0.0), 1.0);
  EXPECT_GE(JsonlNumberField(line, "recorded").value_or(0.0),
            JsonlNumberField(line, "events").value_or(0.0));
  EXPECT_NE(line.find("\"tail\":["), std::string::npos);
  EXPECT_NE(line.find("\"rings\":["), std::string::npos);
  EXPECT_NE(line.find("dump_seed"), std::string::npos);

  // A shutdown-path dump (no signal) omits the signal field.
  MemorySink clean;
  EmitFlightRecorderDump(&clean, -1);
  const std::vector<std::string> clean_lines = clean.lines();
  ASSERT_EQ(clean_lines.size(), 1u);
  EXPECT_FALSE(JsonlNumberField(clean_lines.front(), "signal").has_value());

  // Null sink: explicit no-op.
  EmitFlightRecorderDump(nullptr, SIGSEGV);
}

}  // namespace
}  // namespace chameleon::obs
