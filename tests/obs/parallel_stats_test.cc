// Parallel-region telemetry: the instrumented ParallelForBlocks path
// must not change results — per-block partial sums reduced in block
// order stay bit-identical with instrumentation on or off and across
// worker counts — while counting each region it records, and the spans
// open on the forking thread account for the spawned workers' work.

#include "chameleon/obs/parallel_stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/parallel.h"

namespace chameleon::obs {
namespace {

/// Per-block partial sums reduced in block order: the canonical pattern
/// parallel.h documents for worker-count-independent floating point.
double BlockOrderedSum(std::size_t n, std::size_t block_size, int threads) {
  std::vector<double> partials(NumBlocks(n, block_size), 0.0);
  ParallelForBlocks(n, block_size, threads,
                    [&](std::size_t block, std::size_t begin,
                        std::size_t end) {
                      double sum = 0.0;
                      for (std::size_t i = begin; i < end; ++i) {
                        sum += std::sqrt(static_cast<double>(i) + 0.25) *
                               1.0000001;
                      }
                      partials[block] = sum;
                    });
  double total = 0.0;
  for (const double p : partials) total += p;
  return total;
}

TEST(ParallelStatsTest, OutputBitIdenticalAcrossInstrumentationAndWorkers) {
  constexpr std::size_t kN = 40000;
  constexpr std::size_t kBlock = 512;

  SetEnabledForTesting(false);
  const double reference = BlockOrderedSum(kN, kBlock, 1);
  for (const bool enabled : {false, true}) {
    SetEnabledForTesting(enabled);
    for (const int threads : {1, 2, 3, 8}) {
      const double sum = BlockOrderedSum(kN, kBlock, threads);
      // Bitwise equality, not a tolerance: the block boundaries (and so
      // the reduction order) must not depend on telemetry or workers.
      EXPECT_EQ(sum, reference)
          << "enabled=" << enabled << " threads=" << threads;
    }
  }
  SetEnabledForTesting(false);
}

TEST(ParallelStatsTest, StatsHelpersComputeExpectedRatios) {
  ParallelRegionStats stats;
  stats.per_worker = {{.busy_ns = 300, .blocks = 3},
                      {.busy_ns = 100, .blocks = 1}};
  stats.workers = 2;
  stats.wall_ns = 250;
  EXPECT_EQ(stats.BusyTotalNanos(), 400u);
  // Per-worker max(0, wall - busy): worker 0 overran the wall (clamped
  // to 0), worker 1 idled 150 ns.
  EXPECT_EQ(stats.IdleTotalNanos(), 150u);
  // max busy 300 / mean busy 200.
  EXPECT_DOUBLE_EQ(stats.Imbalance(), 1.5);
  // busy total / wall.
  EXPECT_DOUBLE_EQ(stats.Speedup(), 1.6);
  EXPECT_DOUBLE_EQ(stats.Efficiency(), 0.8);
}

// While observability is off the region runs the plain path and records
// nothing (covered below).
TEST(ParallelStatsTest, InstrumentedRegionIsCounted) {
  SetEnabledForTesting(true);
  const std::uint64_t before = ParallelRegionsRecorded();
  BlockOrderedSum(8192, 256, 2);
  EXPECT_EQ(ParallelRegionsRecorded(), before + 1);
  SetEnabledForTesting(false);
}

TEST(ParallelStatsTest, DormantRegionRecordsNothing) {
  SetEnabledForTesting(false);
  const std::uint64_t before = ParallelRegionsRecorded();
  BlockOrderedSum(8192, 256, 2);
  EXPECT_EQ(ParallelRegionsRecorded(), before);
}

/// The last record of `type` whose `key` field is `value`.
std::optional<JsonValue> FindRecord(const std::string& path,
                                    const std::string& type,
                                    const std::string& key,
                                    const std::string& value) {
  std::optional<JsonValue> found;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    std::optional<JsonValue> record = ParseJson(line);
    if (record && record->Str("type") == type && record->Str(key) == value) {
      found = std::move(record);
    }
  }
  return found;
}

// Runs last in this binary: it starts and stops a real run.
TEST(ParallelStatsTest, SpawnedWorkersReportToTheForkingSpans) {
  constexpr std::size_t kBlocks = 16;
  constexpr std::size_t kBlockBytes = 64 * 1024;
  constexpr int kThreads = 4;
  const std::size_t workers =
      ParallelWorkers(kBlocks, 1, kThreads, /*item_cost=*/1 << 20);
  if (workers < 2) GTEST_SKIP() << "the region gets one worker here";

  const std::string path = testing::TempDir() + "/fold_workers.jsonl";
  ObsOptions options;
  options.metrics_out = path;
  options.read_env = false;
  ASSERT_TRUE(InitObservability(options).ok());

  std::vector<std::uint32_t> block_span_ids(kBlocks, 0);
  std::vector<std::vector<char>> buffers(kBlocks);
  std::vector<double> sums(kBlocks, 0.0);
  std::uint32_t caller_span_id = 0;
  {
    TraceSpan outer("fold");
    TraceSpan inner("region");
    caller_span_id = CurrentSpanPathId();
    // Block 0 runs on the caller and waits until a second thread has
    // entered a block, so a spawned worker certainly does some of the
    // work however late its thread starts.
    std::mutex mu;
    std::set<std::thread::id> threads_seen;
    std::atomic<bool> two_threads{false};
    ParallelForBlocks(
        kBlocks, 1, kThreads,
        [&](std::size_t block, std::size_t, std::size_t) {
          block_span_ids[block] = CurrentSpanPathId();
          {
            const std::lock_guard<std::mutex> lock(mu);
            threads_seen.insert(std::this_thread::get_id());
            if (threads_seen.size() >= 2) two_threads.store(true);
          }
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!two_threads.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          buffers[block].assign(kBlockBytes, static_cast<char>(block));
          for (std::size_t i = 0; i < 200000; ++i) {
            sums[block] += std::sqrt(static_cast<double>(i + block));
          }
        },
        /*item_cost=*/1 << 20);
  }
  ShutdownObservability();

  EXPECT_NE(caller_span_id, 0u);
  for (std::size_t block = 0; block < kBlocks; ++block) {
    EXPECT_EQ(block_span_ids[block], caller_span_id) << "block " << block;
  }

  const std::optional<JsonValue> region =
      FindRecord(path, "parallel_region", "name", "fold/region");
  ASSERT_TRUE(region.has_value());
  const JsonValue* cpu = region->Get("cpu_ns", JsonValue::Kind::kArray);
  ASSERT_NE(cpu, nullptr);
  ASSERT_EQ(cpu->elements().size(), workers);
  double worker_cpu = 0.0;
  double spawned_cpu = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    worker_cpu += cpu->elements()[w].number();
    if (w > 0) spawned_cpu += cpu->elements()[w].number();
  }
  EXPECT_GT(spawned_cpu, 0.0);

  for (const char* span_path : {"fold/region", "fold"}) {
    const std::optional<JsonValue> span =
        FindRecord(path, "span", "path", span_path);
    ASSERT_TRUE(span.has_value()) << span_path;
    EXPECT_GE(span->Num("cpu_ns"), worker_cpu) << span_path;
    EXPECT_GE(span->Num("alloc_bytes"),
              static_cast<double>(kBlocks * kBlockBytes))
        << span_path;
  }

  // The parallel_region record is the region's one account: the
  // run_summary's counters keep no per-call-site copy of it.
  const std::optional<JsonValue> summary =
      FindRecord(path, "run_summary", "type", "run_summary");
  ASSERT_TRUE(summary.has_value());
  const JsonValue* counters =
      summary->Find("counters", JsonValue::Kind::kObject);
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, value] : counters->members()) {
    EXPECT_NE(name.rfind("parallel/", 0), 0u) << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chameleon::obs
