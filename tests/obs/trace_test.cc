#include "chameleon/obs/trace.h"

#include <string>

#include <gtest/gtest.h>

#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

TEST(TraceSpanTest, PathsNestOnOneThread) {
  MemorySink sink;
  Tracer tracer(&sink);
  {
    TraceSpan outer("anonymize", &tracer);
    EXPECT_EQ(outer.path(), "anonymize");
    {
      TraceSpan mid("genobf", &tracer);
      EXPECT_EQ(mid.path(), "anonymize/genobf");
      TraceSpan inner("trial[3]", &tracer);
      EXPECT_EQ(inner.path(), "anonymize/genobf/trial[3]");
    }
    // Closed spans leave the stack: a sibling nests under `anonymize`.
    TraceSpan sibling("write", &tracer);
  }
  { TraceSpan root("next", &tracer); }

  // Inner spans close (and are recorded) before outer ones.
  const auto lines = sink.lines();
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(*JsonlStringField(lines[0], "path"), "anonymize/genobf/trial[3]");
  EXPECT_EQ(*JsonlStringField(lines[1], "path"), "anonymize/genobf");
  EXPECT_EQ(*JsonlStringField(lines[2], "path"), "anonymize/write");
  EXPECT_EQ(*JsonlStringField(lines[3], "path"), "anonymize");
  EXPECT_EQ(*JsonlStringField(lines[4], "path"), "next");
  for (const std::string& line : lines) {
    EXPECT_EQ(*JsonlStringField(line, "type"), "span");
    EXPECT_GE(*JsonlNumberField(line, "dur_ns"), 0.0);
  }
}

TEST(TraceSpanTest, DurationsAreMonotoneAndNested) {
  Tracer tracer(nullptr);
  TraceSpan outer("outer", &tracer);
  const std::uint64_t first = outer.ElapsedNanos();
  std::uint64_t inner_total = 0;
  {
    TraceSpan inner("work", &tracer);
    volatile int sink_value = 0;
    for (int i = 0; i < 10000; ++i) sink_value = i;
    static_cast<void>(sink_value);
    inner_total = inner.ElapsedNanos();
  }
  const std::uint64_t second = outer.ElapsedNanos();
  EXPECT_GE(second, first);
  EXPECT_GE(second, inner_total);  // the parent covers the child
}

TEST(TraceSpanTest, CountersLandInSpanRecord) {
  MemorySink sink;
  Tracer tracer(&sink);
  {
    TraceSpan span("load", &tracer);
    span.AddCount("edges", 10);
    span.AddCount("edges", 5);
    span.AddCount("nodes", 3);
  }
  const auto lines = sink.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(*JsonlNumberField(lines[0], "edges"), 15.0);
  EXPECT_EQ(*JsonlNumberField(lines[0], "nodes"), 3.0);
}

TEST(TraceSpanTest, NullTracerIsInactive) {
  TraceSpan span("ignored", nullptr);
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.ElapsedNanos(), 0u);
  span.AddCount("x", 1);  // must not crash
}

TEST(TraceSpanTest, SeparateTracersDoNotNestIntoEachOther) {
  MemorySink sink_a;
  MemorySink sink_b;
  Tracer a(&sink_a);
  Tracer b(&sink_b);
  TraceSpan outer("outer", &a);
  {
    TraceSpan other("other", &b);
    EXPECT_EQ(other.path(), "other");  // not "outer/other"
  }
  TraceSpan inner("inner", &a);
  EXPECT_EQ(inner.path(), "outer/inner");
}

}  // namespace
}  // namespace chameleon::obs
