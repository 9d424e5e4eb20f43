#include "chameleon/obs/progress.h"

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {

ProgressHeartbeat::ProgressHeartbeat(std::string_view label,
                                     std::uint64_t total_units)
    : ProgressHeartbeat(label, total_units, Options()) {}

ProgressHeartbeat::ProgressHeartbeat(std::string_view label,
                                     std::uint64_t total_units,
                                     Options options)
    : label_(label),
      total_units_(total_units),
      options_(options),
      start_nanos_(MonotonicNanos()) {
  if (options_.sink == nullptr && options_.use_global_sink && Enabled()) {
    options_.sink = GlobalSink();
  }
  // Inert unless something consumes the reports. Logging is tied to the
  // global enable switch so an uninstrumented run stays silent.
  const bool logs = options_.log && (Enabled() || options_.sink != nullptr);
  active_ = logs || options_.sink != nullptr;
}

ProgressHeartbeat::~ProgressHeartbeat() { Finish(); }

void ProgressHeartbeat::Tick(std::uint64_t done_units) {
  if (!active_) return;
  done_units_ = done_units;
  const std::uint64_t now = MonotonicNanos();
  if (now - last_emit_nanos_ < options_.min_interval_nanos) return;
  last_emit_nanos_ = now;
  Emit(/*final=*/false);
}

void ProgressHeartbeat::Finish() {
  if (!active_ || finished_) return;
  finished_ = true;
  Emit(/*final=*/true);
}

void ProgressHeartbeat::Emit(bool final) {
  ++emit_count_;
  const double elapsed_s =
      static_cast<double>(MonotonicNanos() - start_nanos_) * 1e-9;
  const double rate =
      elapsed_s > 0.0 ? static_cast<double>(done_units_) / elapsed_s : 0.0;
  const double eta_s =
      (total_units_ > done_units_ && rate > 0.0)
          ? static_cast<double>(total_units_ - done_units_) / rate
          : 0.0;

  if (options_.log) {
    std::string text;
    if (total_units_ > 0) {
      text = StrFormat(
          "[%s] %llu/%llu (%.1f%%), %.0f/s, ETA %.1fs", label_.c_str(),
          static_cast<unsigned long long>(done_units_),
          static_cast<unsigned long long>(total_units_),
          100.0 * static_cast<double>(done_units_) /
              static_cast<double>(total_units_),
          rate, eta_s);
    } else {
      text = StrFormat("[%s] %llu done, %.0f/s", label_.c_str(),
                       static_cast<unsigned long long>(done_units_), rate);
    }
    if (final) text += StrFormat(", finished in %.2fs", elapsed_s);
    CH_LOG(Info) << text;
  }

  if (options_.sink != nullptr) {
    Record record("progress");
    record.Str("label", label_)
        .Int("done", done_units_)
        .Int("total", total_units_)
        .Num("rate_per_s", rate)
        .Num("eta_s", eta_s);
    if (final) record.Bool("final", true);
    options_.sink->Write(record.Finish());
  }
}

}  // namespace chameleon::obs
