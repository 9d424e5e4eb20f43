#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/alloc_stats.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"

namespace chameleon::obs {
namespace {

/// Burns ~real CPU so a thread CPU-time delta must be visible.
void BurnCpu() {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) acc = acc + i * i;
  static_cast<void>(acc);
}

TEST(ThreadResourceTest, CpuTimeAdvancesWithWork) {
  const ThreadResourceSample before = SampleThreadResources();
  BurnCpu();
  const ThreadResourceSample after = SampleThreadResources();
  EXPECT_GT(after.cpu_ns, before.cpu_ns);
  EXPECT_GT(after.max_rss_kb, 0u);
  EXPECT_GE(after.minor_faults, before.minor_faults);
}

TEST(ThreadResourceTest, AllocationCountersTrackOperatorNew) {
  const AllocStats before = ThreadAllocStats();
  // Direct operator-new calls: the compiler may elide a paired
  // new-expression/delete-expression, but never these.
  void* block = ::operator new(1024 * sizeof(std::uint64_t));
  ::operator delete(block);
  const AllocStats after = ThreadAllocStats();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GE(after.alloc_bytes - before.alloc_bytes, 1024 * sizeof(std::uint64_t));
  EXPECT_GT(after.frees, before.frees);
}

TEST(ThreadResourceTest, OverAlignedAllocationsRouteThroughTheCounters) {
  // The C++17 aligned-new overloads must deliver the requested
  // alignment AND feed the same per-thread counters as plain new —
  // they are the path the heap sampler sees for over-aligned types.
  struct alignas(64) CacheLine {
    std::uint64_t words[8];
  };
  struct alignas(256) Page {
    std::uint64_t words[32];
  };

  const AllocStats before = ThreadAllocStats();
  auto* line = new CacheLine();
  line->words[0] = 1;
  auto* page = new Page[3];
  page[2].words[0] = 2;
  void* raw =
      ::operator new(512, static_cast<std::align_val_t>(128));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(line) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(page) % 256, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(raw) % 128, 0u);
  ::operator delete(raw, static_cast<std::align_val_t>(128));
  delete[] page;
  delete line;
  const AllocStats after = ThreadAllocStats();
  EXPECT_GE(after.allocs - before.allocs, 3u);
  EXPECT_GE(after.frees - before.frees, 3u);
  EXPECT_GE(after.alloc_bytes - before.alloc_bytes,
            sizeof(CacheLine) + 3 * sizeof(Page) + 512);
}

TEST(ThreadResourceTest, NothrowAndSizedDeleteRouteThroughTheCounters) {
  const AllocStats before = ThreadAllocStats();
  void* block = ::operator new(2048, std::nothrow);
  ASSERT_NE(block, nullptr);
  ::operator delete(block, static_cast<std::size_t>(2048));
  const AllocStats after = ThreadAllocStats();
  EXPECT_GE(after.allocs - before.allocs, 1u);
  EXPECT_GE(after.frees - before.frees, 1u);
  EXPECT_GE(after.alloc_bytes - before.alloc_bytes, 2048u);
}

TEST(ThreadResourceTest, AllocationCountersAreThreadLocal) {
  const AllocStats main_before = ThreadAllocStats();
  std::thread worker([] {
    const AllocStats before = ThreadAllocStats();
    void* p = ::operator new(256 * sizeof(int));
    ::operator delete(p);
    const AllocStats after = ThreadAllocStats();
    EXPECT_GT(after.allocs, before.allocs);
  });
  worker.join();
  // The worker's allocations (beyond thread bookkeeping done on this
  // thread) did not inflate this thread's counters by its array.
  const AllocStats main_after = ThreadAllocStats();
  EXPECT_GE(main_after.allocs, main_before.allocs);
}

TEST(ThreadResourceTest, ThreadIndexIsStableAndDistinct) {
  const std::uint32_t mine = CurrentThreadIndex();
  EXPECT_EQ(CurrentThreadIndex(), mine);
  std::uint32_t other = 0;
  std::thread worker([&other] { other = CurrentThreadIndex(); });
  worker.join();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, mine);
}

TEST(TraceSpanResourceTest, SpanRecordCarriesResourceFields) {
  MemorySink sink;
  Tracer tracer(&sink);
  {
    TraceSpan span("resource_probe", &tracer);
    BurnCpu();
    void* p = ::operator new(4096);  // non-elidable, unlike new char[4096]
    ::operator delete(p);
  }
  const auto lines = sink.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(*JsonlStringField(line, "type"), "span");

  // Every resource field is present and sane.
  ASSERT_TRUE(JsonlNumberField(line, "cpu_ns").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "max_rss_kb").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "minflt").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "majflt").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "allocs").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "alloc_bytes").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "tid").has_value());
  ASSERT_TRUE(JsonlNumberField(line, "mono_ns").has_value());

  EXPECT_GT(*JsonlNumberField(line, "cpu_ns"), 0.0);  // BurnCpu ran inside
  EXPECT_GT(*JsonlNumberField(line, "max_rss_kb"), 0.0);
  EXPECT_EQ(*JsonlNumberField(line, "tid"),
            static_cast<double>(CurrentThreadIndex()));
  // CPU time can exceed wall only through rounding; allow 2x slack but
  // catch unit mix-ups (e.g. us vs ns) outright.
  EXPECT_LT(*JsonlNumberField(line, "cpu_ns"),
            2.0 * *JsonlNumberField(line, "dur_ns") + 1e6);
  EXPECT_GE(*JsonlNumberField(line, "allocs"), 1.0);
  EXPECT_GE(*JsonlNumberField(line, "alloc_bytes"), 4096.0);
}

TEST(TraceSpanResourceTest, NestedSpansSplitCpuDeltas) {
  MemorySink sink;
  Tracer tracer(&sink);
  {
    TraceSpan outer("outer", &tracer);
    {
      TraceSpan inner("inner", &tracer);
      BurnCpu();
    }
  }
  const auto lines = sink.lines();
  ASSERT_EQ(lines.size(), 2u);  // inner first
  const double inner_cpu = *JsonlNumberField(lines[0], "cpu_ns");
  const double outer_cpu = *JsonlNumberField(lines[1], "cpu_ns");
  // The outer span's delta covers the inner work (deltas are per-thread
  // and intervals nest).
  EXPECT_GE(outer_cpu, inner_cpu);
  EXPECT_GT(inner_cpu, 0.0);
}

}  // namespace
}  // namespace chameleon::obs
