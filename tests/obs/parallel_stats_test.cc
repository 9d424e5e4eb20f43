// Parallel-region telemetry: the instrumented ParallelForBlocks path
// must not change results — per-block partial sums reduced in block
// order stay bit-identical with instrumentation on or off and across
// worker counts — while recording per-region aggregates.

#include "chameleon/obs/parallel_stats.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/obs.h"
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
  stats.per_worker = {{.busy_ns = 300, .blocks = 3, .hw = {}},
                      {.busy_ns = 100, .blocks = 1, .hw = {}}};
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
TEST(ParallelStatsTest, InstrumentedRegionFeedsAggregates) {
  SetEnabledForTesting(true);
  ResetParallelRegionAggregates();
  const std::uint64_t before = ParallelRegionsRecorded();

  // No span open, so the region lands under the "(no_span)" name.
  BlockOrderedSum(8192, 256, 2);

  EXPECT_EQ(ParallelRegionsRecorded(), before + 1);
  const std::vector<ParallelRegionAggregate> aggs =
      ParallelRegionAggregates();
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].name, "(no_span)");
  EXPECT_EQ(aggs[0].regions, 1u);
  EXPECT_EQ(aggs[0].blocks, NumBlocks(8192, 256));
  EXPECT_GT(aggs[0].wall_ns, 0u);
  EXPECT_GT(aggs[0].busy_ns, 0u);
  EXPECT_GE(aggs[0].max_imbalance, 1.0);

  ResetParallelRegionAggregates();
  EXPECT_TRUE(ParallelRegionAggregates().empty());
  SetEnabledForTesting(false);
}

TEST(ParallelStatsTest, DormantRegionRecordsNothing) {
  SetEnabledForTesting(false);
  ResetParallelRegionAggregates();
  const std::uint64_t before = ParallelRegionsRecorded();
  BlockOrderedSum(8192, 256, 2);
  EXPECT_EQ(ParallelRegionsRecorded(), before);
  EXPECT_TRUE(ParallelRegionAggregates().empty());
}

}  // namespace
}  // namespace chameleon::obs
