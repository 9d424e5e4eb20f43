#ifndef CHAMELEON_OBS_METRICS_H_
#define CHAMELEON_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chameleon/util/common.h"

/// \file metrics.h
/// Process-wide metrics: counters, gauges, and fixed-bucket latency
/// histograms.
///
/// Naming convention: `module/phase/counter`, e.g.
/// `reliability/sampler/worlds` or `span/anonymize/genobf/ms`. Keep
/// cardinality static — never embed loop indices in metric names (trace
/// span paths may carry `[i]` indices; the bracketed parts are stripped
/// before they become metric names).
///
/// Concurrency design: each writer thread owns a *shard*. The hot path
/// (Count/Observe on an already-seen name) is lock-free — a thread-private
/// index lookup plus a relaxed atomic add on a cell only this thread
/// writes. The shard mutex is taken only when a thread first touches a
/// metric name (cell creation) and by TakeSnapshot(), which walks all
/// shards and merges cells by name. Shards outlive their threads so no
/// counts are lost when a worker exits.

namespace chameleon::obs {

class JsonWriter;

/// Number of log2 latency buckets. Bucket b counts durations in
/// [2^b, 2^(b+1)) nanoseconds; the last bucket absorbs overflow
/// (2^39 ns ~ 9.2 minutes).
inline constexpr std::size_t kHistogramBuckets = 40;

/// Maps a duration to its histogram bucket.
inline std::size_t LatencyBucket(std::uint64_t nanos) {
  if (nanos <= 1) return 0;
  const auto bucket = static_cast<std::size_t>(64 - __builtin_clzll(nanos) - 1);
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_nanos = 0;
  std::uint64_t min_nanos = 0;
  std::uint64_t max_nanos = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean_nanos() const {
    return count > 0 ? static_cast<double>(sum_nanos) /
                           static_cast<double>(count)
                     : 0.0;
  }

  /// Bucket-interpolated quantile estimate in nanoseconds, q in [0, 1].
  double QuantileNanos(double q) const;
};

/// A merged, point-in-time view of a MetricsRegistry.
struct MetricsSnapshot {
  std::uint64_t wall_unix_millis = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(std::string_view name) const;
  const HistogramSample* FindHistogram(std::string_view name) const;
  const GaugeSample* FindGauge(std::string_view name) const;

  /// Writes member `key` of `out`'s open object:
  /// {"counters":{...},"gauges":{...},"histograms":{"name":
  ///   {"count":..,"sum_ns":..,"min_ns":..,"max_ns":..,"mean_ns":..,
  ///    "p50_ns":..,"p99_ns":..}}}
  void AppendJson(std::string_view key, JsonWriter* out) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  /// The process-wide registry used by the CHOBS_* macros.
  static MetricsRegistry& Global();

  /// Adds `delta` to counter `name`. Lock-free after the first call from
  /// a given thread for a given name.
  void Count(std::string_view name, std::uint64_t delta = 1);

  /// Records one latency observation into histogram `name`.
  void Observe(std::string_view name, std::uint64_t nanos);

  /// Sets gauge `name` (last writer wins).
  void SetGauge(std::string_view name, double value);

  /// Merges all shards into a consistent-enough snapshot. Concurrent
  /// writers may or may not have their most recent increments included,
  /// but no increment is ever lost or double-counted across snapshots.
  MetricsSnapshot TakeSnapshot() const;

  /// Zeroes every cell (for tests and between benchmark repetitions).
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
  // Gauges are rare (set once per phase); a single locked map suffices.
  mutable std::mutex gauges_mu_;
  std::map<std::string, double, std::less<>> gauges_;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_METRICS_H_
