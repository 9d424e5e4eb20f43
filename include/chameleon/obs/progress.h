#ifndef CHAMELEON_OBS_PROGRESS_H_
#define CHAMELEON_OBS_PROGRESS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "chameleon/obs/sink.h"
#include "chameleon/util/common.h"

/// \file progress.h
/// Throttled progress heartbeat for long Monte Carlo loops. Emits at most
/// one report per `min_interval_nanos` (default 500 ms) regardless of how
/// hot the loop ticks, to stderr and/or the JSONL sink:
///
///   ProgressHeartbeat progress("reliability/sample_worlds", num_worlds);
///   for (std::size_t w = 0; w < num_worlds; ++w) {
///     ...
///     progress.Tick(w + 1);
///   }
///   // Finish() is implicit in the destructor.
///
/// Reports include throughput (units/s) and an ETA from the current
/// rate.

namespace chameleon::obs {

class ProgressHeartbeat {
 public:
  struct Options {
    std::uint64_t min_interval_nanos = 500'000'000;
    /// Log each report via CH_LOG(Info).
    bool log = true;
    /// Explicit sink; when null and `use_global_sink`, the process-global
    /// sink is used (if observability is enabled).
    RecordSink* sink = nullptr;
    bool use_global_sink = true;
  };

  /// `total_units == 0` means unknown total (no ETA or percentage).
  /// The heartbeat is inert when no sink is reachable and logging is off,
  /// or when observability is disabled and no explicit sink was given.
  ProgressHeartbeat(std::string_view label, std::uint64_t total_units);
  ProgressHeartbeat(std::string_view label, std::uint64_t total_units,
                    Options options);
  ~ProgressHeartbeat();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(ProgressHeartbeat);

  /// Records progress; emits a report if the throttle interval elapsed.
  void Tick(std::uint64_t done_units);

  /// Emits the final report (idempotent; called by the destructor).
  void Finish();

  /// Number of reports emitted so far (for tests of the throttle).
  std::uint64_t emit_count() const { return emit_count_; }

 private:
  void Emit(bool final);

  std::string label_;
  std::uint64_t total_units_;
  Options options_;
  bool active_;
  bool finished_ = false;
  std::uint64_t start_nanos_;
  std::uint64_t last_emit_nanos_ = 0;
  std::uint64_t done_units_ = 0;
  std::uint64_t emit_count_ = 0;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_PROGRESS_H_
