#ifndef CHAMELEON_OBS_METRICS_H_
#define CHAMELEON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/util/common.h"

/// \file metrics.h
/// Process-wide counters, written by the run_summary record.
///
/// Naming convention: `module/phase/counter`, e.g.
/// `reliability/sampler/worlds`. Keep cardinality static — never embed
/// loop indices in counter names.
///
/// Concurrency design: each writer thread owns a *shard*. The hot path
/// (Count on an already-seen name) is lock-free — a thread-private index
/// lookup plus a relaxed atomic add on a cell only this thread writes.
/// The shard mutex is taken only when a thread first touches a counter
/// name (cell creation) and by TakeSnapshot(), which walks all shards and
/// merges cells by name. Shards outlive their threads so no counts are
/// lost when a worker exits.

namespace chameleon::obs {

class JsonWriter;

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

/// A merged, point-in-time view of a MetricsRegistry.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;

  const CounterSample* FindCounter(std::string_view name) const;

  /// Writes member `key` of `out`'s open object:
  /// {"counters":{"name":value,...}}
  void AppendJson(std::string_view key, JsonWriter* out) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  /// The process-wide registry used by CHOBS_COUNT.
  static MetricsRegistry& Global();

  /// Adds `delta` to counter `name`. Lock-free after the first call from
  /// a given thread for a given name.
  void Count(std::string_view name, std::uint64_t delta = 1);

  /// Merges all shards into a consistent-enough snapshot. Concurrent
  /// writers may or may not have their most recent increments included,
  /// but no increment is ever lost or double-counted across snapshots.
  MetricsSnapshot TakeSnapshot() const;

  /// Zeroes every counter (for tests and between benchmark repetitions).
  /// Not linearizable against concurrent writers.
  void Reset();

 public:
  struct Shard;

 private:
  Shard& LocalShard();

  /// Process-unique id, assigned lazily; keys the thread-local shard
  /// cache so a destroyed registry can never alias a new one.
  std::atomic<std::uint64_t> registry_id_{0};
  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_METRICS_H_
