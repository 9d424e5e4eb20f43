#include "chameleon/obs/metrics.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/record.h"

namespace chameleon::obs {
namespace {

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
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_NE(snapshot.FindCounter("shared/counter"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("shared/counter")->value,
            kThreads * kIncrements);
}

TEST(MetricsRegistryTest, SnapshotWhileWriting) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.Count("race/counter", 1);
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
  registry.Reset();
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.FindCounter("c")->value, 0u);
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
  JsonWriter writer;
  registry.TakeSnapshot().AppendJson("metrics", &writer);
  const std::string json = writer.Finish();
  EXPECT_NE(json.find("\"metrics\":{\"counters\":{\"a\":2}}"),
            std::string::npos);
}

}  // namespace
}  // namespace chameleon::obs
