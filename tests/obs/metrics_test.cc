#include "chameleon/obs/metrics.h"

#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/record.h"

namespace chameleon::obs {
namespace {

TEST(LatencyBucketTest, Log2Boundaries) {
  EXPECT_EQ(LatencyBucket(0), 0u);
  EXPECT_EQ(LatencyBucket(1), 0u);
  EXPECT_EQ(LatencyBucket(2), 1u);
  EXPECT_EQ(LatencyBucket(3), 1u);
  EXPECT_EQ(LatencyBucket(4), 2u);
  EXPECT_EQ(LatencyBucket(1023), 9u);
  EXPECT_EQ(LatencyBucket(1024), 10u);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(LatencyBucket(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  registry.Count("a/b/c", 1);
  registry.Count("a/b/c", 41);
  registry.Count("other", 5);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_NE(snapshot.FindCounter("a/b/c"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("a/b/c")->value, 42u);
  EXPECT_EQ(snapshot.FindCounter("other")->value, 5u);
  EXPECT_EQ(snapshot.FindCounter("missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugesLastWriterWins) {
  MetricsRegistry registry;
  registry.SetGauge("sigma", 0.5);
  registry.SetGauge("sigma", 0.75);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_NE(snapshot.FindGauge("sigma"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.FindGauge("sigma")->value, 0.75);
}

TEST(MetricsRegistryTest, HistogramStatistics) {
  MetricsRegistry registry;
  registry.Observe("lat", 100);
  registry.Observe("lat", 200);
  registry.Observe("lat", 1'000'000);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample* h = snapshot.FindHistogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum_nanos, 1'000'300u);
  EXPECT_EQ(h->min_nanos, 100u);
  EXPECT_EQ(h->max_nanos, 1'000'000u);
  EXPECT_NEAR(h->mean_nanos(), 1'000'300.0 / 3.0, 1e-9);
  // p50 lands in the bucket holding 100 and 200 ns.
  EXPECT_LT(h->QuantileNanos(0.5), 1024.0);
  EXPECT_GT(h->QuantileNanos(0.99), 500'000.0);
}

TEST(MetricsRegistryTest, HistogramZeroAndOneShareBucketZero) {
  MetricsRegistry registry;
  registry.Observe("edge", 0);
  registry.Observe("edge", 1);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample* h = snapshot.FindHistogram("edge");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->min_nanos, 0u);
  EXPECT_EQ(h->max_nanos, 1u);
  EXPECT_EQ(h->sum_nanos, 1u);
  // Both land in bucket 0 ([0, 2)); every quantile stays inside it.
  EXPECT_DOUBLE_EQ(h->QuantileNanos(0.0), 0.0);
  EXPECT_LE(h->QuantileNanos(0.5), 2.0);
  EXPECT_LE(h->QuantileNanos(1.0), 2.0);
}

TEST(MetricsRegistryTest, HistogramMaxValueClampsToLastBucket) {
  MetricsRegistry registry;
  registry.Observe("edge", std::numeric_limits<std::uint64_t>::max());
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample* h = snapshot.FindHistogram("edge");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->max_nanos, std::numeric_limits<std::uint64_t>::max());
  // The observation clamps into the final bucket; the quantile estimate
  // stays within that bucket's [lo, hi) range rather than overflowing.
  const double lo = static_cast<double>(1ull << (kHistogramBuckets - 1));
  const double hi = static_cast<double>(2ull << (kHistogramBuckets - 1));
  EXPECT_GE(h->QuantileNanos(1.0), lo);
  EXPECT_LE(h->QuantileNanos(1.0), hi);
}

TEST(MetricsRegistryTest, HistogramPercentileEndpoints) {
  MetricsRegistry registry;
  registry.Observe("edge", 100);
  registry.Observe("edge", 200);
  registry.Observe("edge", 1'000'000);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample* h = snapshot.FindHistogram("edge");
  ASSERT_NE(h, nullptr);
  // p0 = lower edge of the first occupied bucket (64 <= 100).
  EXPECT_LE(h->QuantileNanos(0.0), 100.0);
  EXPECT_GT(h->QuantileNanos(0.0), 0.0);
  // p50 stays with the two small observations, p100 reaches the bucket
  // holding the outlier (2^19 <= 1e6 < 2^20).
  EXPECT_LT(h->QuantileNanos(0.5), 1024.0);
  EXPECT_GE(h->QuantileNanos(1.0), 1'000'000.0 / 2.0);
  EXPECT_LE(h->QuantileNanos(1.0), 2'097'152.0);
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(h->QuantileNanos(-1.0), h->QuantileNanos(0.0));
  EXPECT_DOUBLE_EQ(h->QuantileNanos(2.0), h->QuantileNanos(1.0));
}

TEST(MetricsRegistryTest, ConcurrentCountsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrements = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        registry.Count("shared/counter", 1);
        if ((i & 1023u) == 0) registry.Observe("shared/lat", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_NE(snapshot.FindCounter("shared/counter"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("shared/counter")->value,
            kThreads * kIncrements);
  const HistogramSample* h = snapshot.FindHistogram("shared/lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * (kIncrements / 1024 + 1));
}

TEST(MetricsRegistryTest, SnapshotWhileWriting) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.Count("race/counter", 1);
      registry.Observe("race/lat", ++i);
    }
  });
  std::uint64_t last = 0;
  for (int s = 0; s < 50; ++s) {
    const MetricsSnapshot snapshot = registry.TakeSnapshot();
    const CounterSample* c = snapshot.FindCounter("race/counter");
    if (c != nullptr) {
      EXPECT_GE(c->value, last);  // monotone across snapshots
      last = c->value;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(MetricsRegistryTest, ResetZeroes) {
  MetricsRegistry registry;
  registry.Count("c", 3);
  registry.Observe("h", 50);
  registry.SetGauge("g", 1.0);
  registry.Reset();
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.FindCounter("c")->value, 0u);
  EXPECT_EQ(snapshot.FindHistogram("h")->count, 0u);
  EXPECT_EQ(snapshot.FindGauge("g"), nullptr);
}

TEST(MetricsRegistryTest, IndependentRegistriesDoNotAlias) {
  MetricsRegistry a;
  a.Count("x", 1);
  {
    MetricsRegistry b;
    b.Count("x", 100);
    EXPECT_EQ(b.TakeSnapshot().FindCounter("x")->value, 100u);
  }
  MetricsRegistry c;  // may reuse b's address
  c.Count("x", 7);
  EXPECT_EQ(c.TakeSnapshot().FindCounter("x")->value, 7u);
  EXPECT_EQ(a.TakeSnapshot().FindCounter("x")->value, 1u);
}

TEST(MetricsSnapshotTest, ToJsonShape) {
  MetricsRegistry registry;
  registry.Count("a", 2);
  registry.SetGauge("g", 0.5);
  registry.Observe("h", 100);
  JsonWriter writer;
  registry.TakeSnapshot().AppendJson("metrics", &writer);
  const std::string json = writer.Finish();
  EXPECT_NE(json.find("\"counters\":{\"a\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"g\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
}

}  // namespace
}  // namespace chameleon::obs
