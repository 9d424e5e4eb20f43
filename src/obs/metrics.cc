#include "chameleon/obs/metrics.h"

#include <map>
#include <unordered_map>

#include "chameleon/obs/record.h"

namespace chameleon::obs {
namespace {

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

std::atomic<std::uint64_t> g_next_registry_id{1};

}  // namespace

/// One writer thread's private cell store. The `mu` guards the owning
/// map (taken on cell creation, snapshot, and reset); `counter_index` is
/// a view touched only by the owning thread, pointing at the stable map
/// nodes, so the steady-state write path takes no lock.
struct MetricsRegistry::Shard {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<CounterCell>, std::less<>> counters;
  std::unordered_map<std::string_view, CounterCell*> counter_index;
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

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MetricsSnapshot snapshot;

  std::vector<Shard*> shards;
  {
    const std::lock_guard<std::mutex> lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& shard : shards_) shards.push_back(shard.get());
  }

  std::map<std::string, std::uint64_t> counters;
  for (Shard* shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, cell] : shard->counters) {
      counters[name] += cell->value.load(std::memory_order_relaxed);
    }
  }

  snapshot.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    snapshot.counters.push_back(CounterSample{name, value});
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
  }
}

const CounterSample* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const auto& sample : counters) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

void MetricsSnapshot::AppendJson(std::string_view key,
                                 JsonWriter* out) const {
  out->Object(key).Object("counters");
  for (const auto& sample : counters) out->Int(sample.name, sample.value);
  out->End().End();
}

}  // namespace chameleon::obs
