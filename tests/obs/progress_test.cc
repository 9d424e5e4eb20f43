#include "chameleon/obs/progress.h"

#include <gtest/gtest.h>

#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

ProgressHeartbeat::Options SinkOnly(RecordSink* sink,
                                    std::uint64_t interval_nanos) {
  ProgressHeartbeat::Options options;
  options.min_interval_nanos = interval_nanos;
  options.log = false;
  options.sink = sink;
  options.use_global_sink = false;
  return options;
}

TEST(ProgressHeartbeatTest, ZeroIntervalEmitsEveryTick) {
  MemorySink sink;
  {
    ProgressHeartbeat progress("test/loop", 10, SinkOnly(&sink, 0));
    for (std::uint64_t i = 1; i <= 10; ++i) progress.Tick(i);
    EXPECT_EQ(progress.emit_count(), 10u);
  }
  // Destructor adds the final report.
  const auto lines = sink.lines();
  ASSERT_EQ(lines.size(), 11u);
  for (const auto& line : lines) {
    EXPECT_EQ(*JsonlStringField(line, "type"), "progress");
    EXPECT_EQ(*JsonlStringField(line, "label"), "test/loop");
    EXPECT_EQ(*JsonlNumberField(line, "total"), 10.0);
  }
  EXPECT_EQ(*JsonlNumberField(lines[0], "done"), 1.0);
  EXPECT_EQ(*JsonlNumberField(lines.back(), "done"), 10.0);
}

TEST(ProgressHeartbeatTest, HugeIntervalThrottlesToFinalOnly) {
  MemorySink sink;
  {
    ProgressHeartbeat progress(
        "test/loop", 1000,
        SinkOnly(&sink, ~std::uint64_t{0}));  // effectively never
    for (std::uint64_t i = 1; i <= 1000; ++i) progress.Tick(i);
    EXPECT_EQ(progress.emit_count(), 0u);
  }
  const auto lines = sink.lines();
  ASSERT_EQ(lines.size(), 1u);  // only the Finish() report
  EXPECT_EQ(*JsonlNumberField(lines[0], "done"), 1000.0);
}

TEST(ProgressHeartbeatTest, FinishIsIdempotent) {
  MemorySink sink;
  ProgressHeartbeat progress("test/loop", 5, SinkOnly(&sink, 0));
  progress.Tick(5);
  progress.Finish();
  progress.Finish();
  EXPECT_EQ(sink.lines().size(), 2u);  // one tick + one final
}

TEST(ProgressHeartbeatTest, InertWithoutAnySink) {
  ProgressHeartbeat::Options options;
  options.log = false;
  options.sink = nullptr;
  options.use_global_sink = false;
  ProgressHeartbeat progress("test/loop", 10, options);
  for (std::uint64_t i = 1; i <= 10; ++i) progress.Tick(i);
  progress.Finish();
  EXPECT_EQ(progress.emit_count(), 0u);
}

}  // namespace
}  // namespace chameleon::obs
