#include "chameleon/obs/metrics.h"

#include <algorithm>
#include <limits>

#include "chameleon/obs/record.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {
namespace {

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct HistogramCell {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_nanos{0};
  std::atomic<std::uint64_t> min_nanos{
      std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_nanos{0};
};

void AtomicMin(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

std::atomic<std::uint64_t> g_next_registry_id{1};

}  // namespace

/// One writer thread's private cell store. The `mu` guards the owning
/// maps (taken on cell creation, snapshot, and reset); `*_index` are
/// views touched only by the owning thread, pointing at the stable map
/// nodes, so the steady-state write path takes no lock.
struct MetricsRegistry::Shard {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<CounterCell>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<HistogramCell>, std::less<>>
      histograms;
  std::unordered_map<std::string_view, CounterCell*> counter_index;
  std::unordered_map<std::string_view, HistogramCell*> histogram_index;
};

namespace {

/// Thread-local shard lookup keyed by registry id. Ids are never reused,
/// so a destroyed registry's stale entries can never alias a new one.
struct TlsShards {
  std::uint64_t last_id = 0;
  MetricsRegistry::Shard* last_shard = nullptr;
  std::unordered_map<std::uint64_t, MetricsRegistry::Shard*> by_registry;
};

thread_local TlsShards tls_shards;

std::uint64_t NextRegistryId() {
  return g_next_registry_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  TlsShards& tls = tls_shards;
  std::uint64_t effective_id = registry_id_.load(std::memory_order_acquire);
  if (effective_id == 0) {
    std::uint64_t expected = 0;
    const std::uint64_t fresh = NextRegistryId();
    registry_id_.compare_exchange_strong(expected, fresh,
                                         std::memory_order_acq_rel);
    effective_id = registry_id_.load(std::memory_order_acquire);
  }
  if (tls.last_id == effective_id) return *tls.last_shard;
  auto it = tls.by_registry.find(effective_id);
  if (it == tls.by_registry.end()) {
    auto shard = std::make_unique<Shard>();
    Shard* raw = shard.get();
    {
      const std::lock_guard<std::mutex> lock(shards_mu_);
      shards_.push_back(std::move(shard));
    }
    it = tls.by_registry.emplace(effective_id, raw).first;
  }
  tls.last_id = effective_id;
  tls.last_shard = it->second;
  return *it->second;
}

void MetricsRegistry::Count(std::string_view name, std::uint64_t delta) {
  Shard& shard = LocalShard();
  CounterCell* cell;
  const auto hit = shard.counter_index.find(name);
  if (hit != shard.counter_index.end()) {
    cell = hit->second;
  } else {
    const std::lock_guard<std::mutex> lock(shard.mu);
    auto [node, inserted] = shard.counters.try_emplace(std::string(name));
    if (inserted) node->second = std::make_unique<CounterCell>();
    cell = node->second.get();
    shard.counter_index.emplace(std::string_view(node->first), cell);
  }
  cell->value.fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Observe(std::string_view name, std::uint64_t nanos) {
  Shard& shard = LocalShard();
  HistogramCell* cell;
  const auto hit = shard.histogram_index.find(name);
  if (hit != shard.histogram_index.end()) {
    cell = hit->second;
  } else {
    const std::lock_guard<std::mutex> lock(shard.mu);
    auto [node, inserted] = shard.histograms.try_emplace(std::string(name));
    if (inserted) node->second = std::make_unique<HistogramCell>();
    cell = node->second.get();
    shard.histogram_index.emplace(std::string_view(node->first), cell);
  }
  cell->buckets[LatencyBucket(nanos)].fetch_add(1, std::memory_order_relaxed);
  cell->count.fetch_add(1, std::memory_order_relaxed);
  cell->sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
  AtomicMin(cell->min_nanos, nanos);
  AtomicMax(cell->max_nanos, nanos);
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(gauges_mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MetricsSnapshot snapshot;
  snapshot.wall_unix_millis = WallUnixMillis();

  std::vector<Shard*> shards;
  {
    const std::lock_guard<std::mutex> lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& shard : shards_) shards.push_back(shard.get());
  }

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSample> histograms;
  for (Shard* shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, cell] : shard->counters) {
      counters[name] += cell->value.load(std::memory_order_relaxed);
    }
    for (const auto& [name, cell] : shard->histograms) {
      HistogramSample& merged = histograms[name];
      merged.name = name;
      const std::uint64_t count = cell->count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      merged.count += count;
      merged.sum_nanos += cell->sum_nanos.load(std::memory_order_relaxed);
      const std::uint64_t lo = cell->min_nanos.load(std::memory_order_relaxed);
      const std::uint64_t hi = cell->max_nanos.load(std::memory_order_relaxed);
      if (merged.count == count || lo < merged.min_nanos) {
        merged.min_nanos = lo;
      }
      merged.max_nanos = std::max(merged.max_nanos, hi);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        merged.buckets[b] += cell->buckets[b].load(std::memory_order_relaxed);
      }
    }
  }

  snapshot.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    snapshot.counters.push_back(CounterSample{name, value});
  }
  snapshot.histograms.reserve(histograms.size());
  for (auto& [name, sample] : histograms) {
    snapshot.histograms.push_back(std::move(sample));
  }
  {
    const std::lock_guard<std::mutex> lock(gauges_mu_);
    snapshot.gauges.reserve(gauges_.size());
    for (const auto& [name, value] : gauges_) {
      snapshot.gauges.push_back(GaugeSample{name, value});
    }
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::vector<Shard*> shards;
  {
    const std::lock_guard<std::mutex> lock(shards_mu_);
    for (const auto& shard : shards_) shards.push_back(shard.get());
  }
  for (Shard* shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [name, cell] : shard->counters) {
      cell->value.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, cell] : shard->histograms) {
      for (auto& bucket : cell->buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      cell->count.store(0, std::memory_order_relaxed);
      cell->sum_nanos.store(0, std::memory_order_relaxed);
      cell->min_nanos.store(std::numeric_limits<std::uint64_t>::max(),
                            std::memory_order_relaxed);
      cell->max_nanos.store(0, std::memory_order_relaxed);
    }
  }
  const std::lock_guard<std::mutex> lock(gauges_mu_);
  gauges_.clear();
}

double HistogramSample::QuantileNanos(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t next = seen + buckets[b];
    if (static_cast<double>(next) >= target) {
      const double lo = (b == 0) ? 0.0 : static_cast<double>(1ull << b);
      const double hi = static_cast<double>(2ull << b);
      const double inside =
          (target - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      return lo + inside * (hi - lo);
    }
    seen = next;
  }
  return static_cast<double>(max_nanos);
}

const CounterSample* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const auto& sample : counters) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& sample : histograms) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const auto& sample : gauges) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

void MetricsSnapshot::AppendJson(std::string_view key,
                                 JsonWriter* out) const {
  out->Object(key).Object("counters");
  for (const auto& sample : counters) out->Int(sample.name, sample.value);
  out->End().Object("gauges");
  for (const auto& sample : gauges) out->Num(sample.name, sample.value);
  out->End().Object("histograms");
  for (const auto& sample : histograms) {
    out->Object(sample.name)
        .Int("count", sample.count)
        .Int("sum_ns", sample.sum_nanos)
        .Int("min_ns", sample.min_nanos)
        .Int("max_ns", sample.max_nanos)
        .Num("mean_ns", sample.mean_nanos())
        .Num("p50_ns", sample.QuantileNanos(0.5))
        .Num("p99_ns", sample.QuantileNanos(0.99))
        .End();
  }
  out->End().End();
}

}  // namespace chameleon::obs
