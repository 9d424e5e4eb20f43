// Sampling heap profiler: the unbiased estimator must land within its
// documented 2x envelope on a known workload, the live map must
// decrement sites when their blocks are freed, the JSONL emission must
// produce schema-complete heap_profile records plus exactly one
// heap_timeline, and the exactly-one-of contract (capture XOR one
// heap_profiler_unavailable record) must hold through a real
// InitObservability/Shutdown lifecycle in every build config —
// including sanitizer builds, where StartHeapProfiler refuses and the
// unavailable side carries the coverage.

#include "chameleon/obs/heap_profiler.h"

#include <sys/types.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "chameleon/obs/alloc_stats.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

/// Starts the sampler or skips the test where it cannot run (sanitizer
/// builds, non-Linux). GTEST_SKIP returns from the
/// enclosing test body, so this must stay a macro.
#define START_OR_SKIP(options)                                        \
  do {                                                                \
    if (const Status start_status = StartHeapProfiler(options);       \
        !start_status.ok()) {                                         \
      GTEST_SKIP() << "heap profiler unavailable here: "              \
                   << start_status.ToString();                        \
    }                                                                 \
  } while (0)

/// Allocates `count` blocks of `size` bytes through operator new,
/// touching each so the allocation is real. Retained blocks model live
/// memory; the caller frees them (or leaks them for the allowlist case).
std::vector<char*> AllocateBlocks(std::size_t count, std::size_t size) {
  std::vector<char*> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char* block = new char[size];
    block[0] = static_cast<char>(i);
    block[size - 1] = static_cast<char>(i >> 8);
    blocks.push_back(block);
  }
  return blocks;
}

void FreeBlocks(std::vector<char*>* blocks) {
  for (char* block : *blocks) delete[] block;
  blocks->clear();
}

TEST(HeapProfilerStartTest, RejectsZeroSampleRate) {
  HeapProfilerOptions options;
  options.sample_bytes = 0;
  const Status s = StartHeapProfiler(options);
  EXPECT_FALSE(s.ok());
}

TEST(HeapProfilerStartTest, InactiveProfilerReportsReasonAndRefusesStop) {
  ASSERT_FALSE(HeapProfilerActive());
  EXPECT_NE(HeapProfilerUnavailableReason(), "");
  EXPECT_FALSE(StopHeapProfiler().ok());
  // Snapshot of an inactive profiler is empty, not an error.
  const HeapProfileReport report = SnapshotHeapProfile(true);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_TRUE(report.sites.empty());
}

TEST(HeapProfilerStartTest, DoubleStartIsRefused) {
  HeapProfilerOptions options;
  options.sample_bytes = 1 << 20;
  START_OR_SKIP(options);
  EXPECT_FALSE(StartHeapProfiler(options).ok());
  EXPECT_TRUE(StopHeapProfiler().ok());
  EXPECT_FALSE(HeapProfilerActive());
  EXPECT_NE(HeapProfilerUnavailableReason(), "");
}

TEST(HeapEstimatorTest, CumulativeEstimateWithinTwoFoldOfWorkload) {
  HeapProfilerOptions options;
  options.sample_bytes = 4096;
  START_OR_SKIP(options);

  // 4096 blocks x 16 KiB = 64 MiB >> the 4 KiB sampling interval, so
  // the estimator sees thousands of samples and 64 MiB dominates
  // whatever the test framework itself allocates.
  constexpr std::size_t kCount = 4096;
  constexpr std::size_t kSize = 16 * 1024;
  constexpr double kWorkload = static_cast<double>(kCount * kSize);
  std::vector<char*> blocks = AllocateBlocks(kCount, kSize);
  FreeBlocks(&blocks);

  const Result<HeapProfileReport> report = StopHeapProfiler();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->samples, 64u);
  EXPECT_EQ(report->sample_bytes, 4096u);
  // The statistical contract check_heap.py enforces in CI, asserted at
  // the source: estimated cumulative bytes within 2x of what the
  // workload actually allocated.
  const double est = static_cast<double>(report->est_cum_bytes);
  EXPECT_GE(est, kWorkload / 2.0);
  EXPECT_LE(est, kWorkload * 2.5);  // small slack: the test process also
                                    // allocates outside the workload
  // The exact counters are process totals and can only exceed the
  // workload's own bytes.
  EXPECT_GE(report->exact_cum_bytes, static_cast<std::uint64_t>(kWorkload));
  EXPECT_GE(report->exact_cum_allocs, kCount);
  ASSERT_FALSE(report->sites.empty());
  // Sites arrive sorted by estimated cumulative bytes, descending.
  for (std::size_t i = 1; i < report->sites.size(); ++i) {
    EXPECT_GE(report->sites[i - 1].cum_bytes, report->sites[i].cum_bytes);
  }
  // Freed blocks left the live map: live is a small fraction of
  // cumulative.
  EXPECT_LT(report->est_live_bytes, report->est_cum_bytes / 4);
  // The timeline holds at least its start and stop points, in order.
  ASSERT_GE(report->timeline.size(), 2u);
  for (std::size_t i = 1; i < report->timeline.size(); ++i) {
    EXPECT_GE(report->timeline[i].mono_ns, report->timeline[i - 1].mono_ns);
  }
  EXPECT_GT(report->timeline.back().rss_kb, 0u);
}

TEST(HeapEstimatorTest, LiveMapDecrementsWhenBlocksAreFreed) {
  HeapProfilerOptions options;
  options.sample_bytes = 4096;
  START_OR_SKIP(options);

  std::vector<char*> blocks = AllocateBlocks(2048, 16 * 1024);  // 32 MiB
  const HeapProfileReport held = SnapshotHeapProfile(false);
  FreeBlocks(&blocks);
  const HeapProfileReport freed = SnapshotHeapProfile(false);
  const Result<HeapProfileReport> stopped = StopHeapProfiler();
  ASSERT_TRUE(stopped.ok());

  // While the blocks were held the estimated live bytes cover at least
  // half the retained 32 MiB; after the frees they collapse.
  EXPECT_GE(held.est_live_bytes, 16u * 1024 * 1024);
  EXPECT_LT(freed.est_live_bytes, held.est_live_bytes / 2);
  // Peak tracks the held high-water mark even after the frees.
  EXPECT_GE(freed.est_peak_bytes, held.est_live_bytes);
}

TEST(HeapRecordsTest, EmitsSchemaCompleteRecordsAndTimeline) {
  SetHeapLeakAllowlistForTesting({"(no_span)"});
  HeapProfilerOptions options;
  options.sample_bytes = 4096;
  START_OR_SKIP(options);

  // Retained blocks so at least one site is live (and, via the
  // allowlist above, reported as an intentional leak).
  std::vector<char*> blocks = AllocateBlocks(1024, 16 * 1024);

  MemorySink sink;
  EXPECT_FALSE(HeapRecordsEmitted());
  EmitHeapProfileRecords(&sink);
  EXPECT_TRUE(HeapRecordsEmitted());
  FreeBlocks(&blocks);
  ASSERT_TRUE(StopHeapProfiler().ok());
  SetHeapLeakAllowlistForTesting({});

  std::size_t profiles = 0;
  std::size_t timelines = 0;
  bool allowlisted_leak = false;
  for (const std::string& line : sink.lines()) {
    const std::string type = JsonlStringField(line, "type").value_or("");
    if (type == "heap_profile") {
      ++profiles;
      EXPECT_NE(JsonlStringField(line, "span_path"), "") << line;
      EXPECT_GE(JsonlNumberField(line, "samples").value_or(-1.0), 1.0);
      EXPECT_GE(JsonlNumberField(line, "cum_bytes").value_or(-1.0), 0.0);
      EXPECT_GE(JsonlNumberField(line, "live_bytes").value_or(-1.0), 0.0);
      EXPECT_GE(JsonlNumberField(line, "peak_bytes").value_or(-1.0), 0.0);
      EXPECT_GE(JsonlNumberField(line, "leak_bytes").value_or(-1.0), 0.0);
      EXPECT_GT(JsonlNumberField(line, "scale").value_or(0.0), 0.0);
      EXPECT_EQ(JsonlNumberField(line, "sample_bytes"), 4096.0);
      if (line.find("\"allowlisted\":true") != std::string::npos) {
        allowlisted_leak = true;
      }
    } else if (type == "heap_timeline") {
      ++timelines;
      EXPECT_GE(JsonlNumberField(line, "samples").value_or(-1.0), 1.0);
      EXPECT_GT(JsonlNumberField(line, "est_cum_bytes").value_or(0.0), 0.0);
      EXPECT_GT(JsonlNumberField(line, "exact_cum_bytes").value_or(0.0),
                0.0);
      EXPECT_NE(line.find("\"points\":["), std::string::npos) << line;
    }
  }
  EXPECT_GE(profiles, 1u);
  EXPECT_EQ(timelines, 1u);
  // The 16 MiB retained by a site outside any span matched the
  // "(no_span)" allowlist entry.
  EXPECT_TRUE(allowlisted_leak);
}

TEST(HeapRecordsTest, FoldedOutputIsWeightedCollapsedStacks) {
  const std::string path = testing::TempDir() + "/heap_test.folded";
  std::remove(path.c_str());
  HeapProfilerOptions options;
  options.sample_bytes = 4096;
  options.folded_out = path;
  START_OR_SKIP(options);

  std::vector<char*> blocks = AllocateBlocks(1024, 16 * 1024);
  FreeBlocks(&blocks);
  ASSERT_TRUE(StopHeapProfiler().ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "folded output missing: " << path;
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    ++lines;
    // "frame;frame;frame <bytes>" — a space-separated positive weight
    // after a non-empty stack.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u)
        << line;
  }
  EXPECT_GE(lines, 1u);
}

// ---------------------------------------------------------------------
// The exactly-one-of contract through the real obs lifecycle. Each case
// forks: InitObservability/Shutdown are process-global.

/// Forks; the child runs an obs-configured run with `body` and a clean
/// ShutdownObservability. Returns the child's exit code.
template <typename Fn>
int RunChild(const std::string& path, Fn body) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    ObsOptions options;
    options.metrics_out = path;
    options.read_env = false;
    if (!InitObservability(options).ok()) _exit(97);
    body();
    ShutdownObservability();
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::size_t CountType(const std::vector<std::string>& lines,
                      const std::string& type) {
  std::size_t n = 0;
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") == type) ++n;
  }
  return n;
}

TEST(HeapLifecycleTest, RunWithoutHeapProfilingEmitsOneUnavailableRecord) {
  const std::string path = testing::TempDir() + "/heap_not_requested.jsonl";
  std::remove(path.c_str());

  ASSERT_EQ(RunChild(path, [] {}), 0);

  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(CountType(lines, "heap_profile"), 0u);
  EXPECT_EQ(CountType(lines, "heap_timeline"), 0u);
  ASSERT_EQ(CountType(lines, "heap_profiler_unavailable"), 1u);
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") != "heap_profiler_unavailable") {
      continue;
    }
    EXPECT_NE(JsonlStringField(line, "reason"), "") << line;
  }
}

// The build-config guard: a profiled run satisfies the exactly-one-of
// contract on BOTH sides. Plain builds flush heap_profile records plus
// exactly one heap_timeline and no unavailable record; sanitizer builds
// (where StartHeapProfiler refuses) flush exactly one
// heap_profiler_unavailable naming the sanitizer and no capture
// records. The ASan CI job runs this test to pin the refusal path.
TEST(HeapLifecycleTest, ProfiledRunSatisfiesExactlyOneOfContract) {
  const std::string path = testing::TempDir() + "/heap_profiled.jsonl";
  std::remove(path.c_str());

  ASSERT_EQ(RunChild(path,
                     [] {
                       HeapProfilerOptions options;
                       options.sample_bytes = 4096;
                       // A refused start (sanitizer build) is the
                       // degraded path under test, not an error.
                       (void)StartHeapProfiler(options).ok();
                       std::vector<char*> blocks =
                           AllocateBlocks(1024, 16 * 1024);
                       FreeBlocks(&blocks);
                     }),
            0);

  const std::vector<std::string> lines = ReadLines(path);
  const std::size_t profiles = CountType(lines, "heap_profile");
  const std::size_t timelines = CountType(lines, "heap_timeline");
  const std::size_t unavailable =
      CountType(lines, "heap_profiler_unavailable");
  if (unavailable > 0) {
    // Sanitizer (or otherwise refusing) build: only the fallback record.
    EXPECT_EQ(unavailable, 1u);
    EXPECT_EQ(profiles, 0u);
    EXPECT_EQ(timelines, 0u);
  } else {
    EXPECT_GE(profiles, 1u);
    EXPECT_EQ(timelines, 1u);
  }
  // Either way the run summary carries the exact process-wide totals.
  EXPECT_EQ(CountType(lines, "run_summary"), 1u);
}

}  // namespace
}  // namespace chameleon::obs
