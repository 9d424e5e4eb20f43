#include "chameleon/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon {
namespace {

TEST(EffectiveThreadsTest, PositiveRequestIsHonored) {
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(8), 8);
}

TEST(EffectiveThreadsTest, NonPositiveFallsBackToHardware) {
  EXPECT_GE(EffectiveThreads(0), 1);
  EXPECT_GE(EffectiveThreads(-3), 1);
}

TEST(NumBlocksTest, RoundsUp) {
  EXPECT_EQ(NumBlocks(0, 4), 0u);
  EXPECT_EQ(NumBlocks(1, 4), 1u);
  EXPECT_EQ(NumBlocks(4, 4), 1u);
  EXPECT_EQ(NumBlocks(5, 4), 2u);
  EXPECT_EQ(NumBlocks(8, 4), 2u);
}

TEST(ParallelForBlocksTest, EveryIndexVisitedExactlyOnce) {
  constexpr std::size_t kN = 1003;
  std::vector<std::atomic<int>> visits(kN);
  ParallelForBlocks(kN, 17, 8,
                    [&](std::size_t /*block*/, std::size_t begin,
                        std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        visits[i].fetch_add(1, std::memory_order_relaxed);
                      }
                    });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForBlocksTest, BlockBoundariesIndependentOfWorkerCount) {
  constexpr std::size_t kN = 259;
  constexpr std::size_t kBlock = 32;
  const auto collect = [&](int threads) {
    std::mutex mu;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> triples;
    ParallelForBlocks(kN, kBlock, threads,
                      [&](std::size_t block, std::size_t begin,
                          std::size_t end) {
                        const std::lock_guard<std::mutex> lock(mu);
                        triples.insert({block, begin, end});
                      });
    return triples;
  };
  const auto serial = collect(1);
  const auto parallel = collect(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.size(), NumBlocks(kN, kBlock));
  // The final block is the short tail.
  EXPECT_TRUE(serial.count({8, 256, 259}));
}

TEST(ParallelForBlocksTest, ItemCostRaisesWorkersButKeepsBlocks) {
  // 64 items of cost 1 sit far under the grain; the same 64 items at
  // cost 32 or 2^20 carry 2048 or 2^26 units of work.
  constexpr std::size_t kN = 64;
  constexpr std::size_t kBlock = 4;
  const auto collect = [&](std::size_t item_cost) {
    std::mutex mu;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> triples;
    ParallelForBlocks(
        kN, kBlock, 8,
        [&](std::size_t block, std::size_t begin, std::size_t end) {
          const std::lock_guard<std::mutex> lock(mu);
          triples.insert({block, begin, end});
        },
        item_cost);
    return triples;
  };
  const auto unit = collect(1);
  EXPECT_EQ(unit.size(), NumBlocks(kN, kBlock));
  EXPECT_EQ(collect(32), unit);
  EXPECT_EQ(collect(std::size_t{1} << 20), unit);

  const std::size_t hw =
      std::thread::hardware_concurrency() == 0
          ? 1
          : std::thread::hardware_concurrency();
  EXPECT_EQ(ParallelWorkers(kN, kBlock, 8), 1u);
  EXPECT_EQ(ParallelWorkers(kN, kBlock, 8, 32), std::min<std::size_t>(2, hw));
  EXPECT_EQ(ParallelWorkers(kN, kBlock, 8, std::size_t{1} << 20),
            std::min<std::size_t>(8, hw));
  // n · item_cost saturates instead of wrapping to a tiny grain.
  EXPECT_EQ(ParallelWorkers(kN, kBlock, 2, SIZE_MAX),
            std::min<std::size_t>(2, hw));
  EXPECT_EQ(ParallelWorkers(0, kBlock, 8, 32), 0u);
}

TEST(ParallelForBlocksTest, EmptyRangeNeverInvokes) {
  bool invoked = false;
  ParallelForBlocks(0, 16, 4,
                    [&](std::size_t, std::size_t, std::size_t) {
                      invoked = true;
                    });
  EXPECT_FALSE(invoked);
}

TEST(ParallelForBlocksTest, MoreThreadsThanBlocksIsFine) {
  std::atomic<std::size_t> total{0};
  ParallelForBlocks(10, 100, 16,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      total.fetch_add(end - begin);
                    });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ParallelForBlocksTest, ZeroBlockSizeNeverInvokes) {
  bool invoked = false;
  ParallelForBlocks(100, 0, 4,
                    [&](std::size_t, std::size_t, std::size_t) {
                      invoked = true;
                    });
  EXPECT_FALSE(invoked);
}

/// Collects the distinct thread ids that ran callbacks, and whether the
/// calling thread was one of them.
std::set<std::thread::id> RunAndCollectThreadIds(std::size_t n,
                                                 std::size_t block_size,
                                                 int threads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelForBlocks(n, block_size, threads,
                    [&](std::size_t, std::size_t, std::size_t) {
                      const std::lock_guard<std::mutex> lock(mu);
                      ids.insert(std::this_thread::get_id());
                    });
  return ids;
}

TEST(ParallelForBlocksTest, SmallRangesRunInlineDespiteThreadRequest) {
  // 512 items sit under the ~1024-item minimum grain: even an explicit
  // --threads=8 must not spawn workers (the regression this guards:
  // thread startup dwarfing the actual work).
  const std::set<std::thread::id> ids = RunAndCollectThreadIds(512, 32, 8);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelForBlocksTest, SingleBlockRunsInline) {
  const std::set<std::thread::id> ids = RunAndCollectThreadIds(10, 100, 8);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelForBlocksTest, WorkerCountClampedToHardwareConcurrency) {
  // A request far above the core count must clamp: the caller plus the
  // spawned workers total at most hardware_concurrency threads.
  const std::size_t hw =
      std::thread::hardware_concurrency() == 0
          ? 1
          : std::thread::hardware_concurrency();
  const std::set<std::thread::id> ids =
      RunAndCollectThreadIds(1 << 16, 256, 64);
  EXPECT_LE(ids.size(), hw);
  EXPECT_GE(ids.size(), 1u);
}

}  // namespace
}  // namespace chameleon
