#include "chameleon/obs/convergence.h"

#include <algorithm>
#include <cmath>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {

double NormalCiHalfwidth(double variance, std::uint64_t n, double z) {
  if (n == 0) return 0.0;
  return z * std::sqrt(std::max(0.0, variance) / static_cast<double>(n));
}

double WilsonCiHalfwidth(std::uint64_t successes, std::uint64_t n, double z) {
  if (n == 0) return 0.0;
  const double nd = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nd;
  const double z2 = z * z;
  const double radicand = p * (1.0 - p) / nd + z2 / (4.0 * nd * nd);
  return z * std::sqrt(radicand) / (1.0 + z2 / nd);
}

ConvergenceTracker::ConvergenceTracker(std::string_view label,
                                       ConvergenceOptions options)
    : label_(label),
      options_(options),
      start_nanos_(MonotonicNanos()),
      next_checkpoint_(std::max<std::uint64_t>(options.min_samples, 1)) {
  if (options_.sink == nullptr && options_.use_global_sink && Enabled()) {
    options_.sink = GlobalSink();
  }
  // First time-throttled emission waits a full interval; the first
  // checkpoint emission still fires at min_samples.
  last_emit_nanos_ = start_nanos_;
}

ConvergenceTracker::~ConvergenceTracker() { Finish(/*stopped_early=*/false); }

void ConvergenceTracker::Add(double x) {
  const std::lock_guard<std::mutex> lock(mu_);
  stats_.Add(x);
  MaybeEmitLocked();
}

void ConvergenceTracker::AddBernoulli(bool success) {
  const std::lock_guard<std::mutex> lock(mu_);
  stats_.Add(success ? 1.0 : 0.0);
  if (success) ++successes_;
  MaybeEmitLocked();
}

bool ConvergenceTracker::ShouldStop() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ShouldStopLocked();
}

bool ConvergenceTracker::ShouldStopLocked() const {
  if (!has_stopping_rule()) return false;
  const std::uint64_t n = stats_.count();
  if (n < options_.min_samples || n < 2) return false;
  const double hw = options_.bernoulli
                        ? WilsonCiHalfwidth(successes_, n, options_.z)
                        : NormalCiHalfwidth(stats_.variance(), n, options_.z);
  if (options_.target_ci_halfwidth > 0.0 &&
      hw <= options_.target_ci_halfwidth) {
    return true;
  }
  const double magnitude = std::abs(stats_.mean());
  return options_.max_rel_err > 0.0 && magnitude > 0.0 &&
         hw <= options_.max_rel_err * magnitude;
}

ConvergenceSnapshot ConvergenceTracker::SnapshotLocked() const {
  ConvergenceSnapshot snapshot;
  snapshot.label = label_;
  snapshot.samples = stats_.count();
  snapshot.mean = stats_.mean();
  snapshot.stddev = stats_.stddev();
  snapshot.ci_halfwidth =
      options_.bernoulli
          ? WilsonCiHalfwidth(successes_, snapshot.samples, options_.z)
          : NormalCiHalfwidth(stats_.variance(), snapshot.samples, options_.z);
  snapshot.rel_err = snapshot.mean != 0.0
                         ? snapshot.ci_halfwidth / std::abs(snapshot.mean)
                         : 0.0;
  const double elapsed_s =
      static_cast<double>(MonotonicNanos() - start_nanos_) * 1e-9;
  snapshot.rate_per_s =
      elapsed_s > 0.0 ? static_cast<double>(snapshot.samples) / elapsed_s : 0.0;
  snapshot.finished = finished_;
  snapshot.stopped_early = stopped_early_;
  return snapshot;
}

ConvergenceSnapshot ConvergenceTracker::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

void ConvergenceTracker::MaybeEmitLocked() {
  if (options_.sink == nullptr) return;
  const std::uint64_t n = stats_.count();
  if (n >= next_checkpoint_) {
    while (next_checkpoint_ <= n) next_checkpoint_ *= 2;
    last_emit_nanos_ = MonotonicNanos();
    EmitLocked(/*final=*/false, /*stopped_early=*/false);
    return;
  }
  const std::uint64_t now = MonotonicNanos();
  if (now - last_emit_nanos_ < options_.min_emit_interval_nanos) return;
  last_emit_nanos_ = now;
  EmitLocked(/*final=*/false, /*stopped_early=*/false);
}

void ConvergenceTracker::EmitLocked(bool final, bool stopped_early) {
  if (options_.sink == nullptr) return;
  const ConvergenceSnapshot s = SnapshotLocked();
  Record record("estimator_progress");
  record.Str("label", label_)
      .Int("samples", s.samples)
      .Num("mean", s.mean)
      .Num("stddev", s.stddev)
      .Num("ci_halfwidth", s.ci_halfwidth)
      .Num("rel_err", s.rel_err)
      .Num("rate_per_s", s.rate_per_s);
  if (final) record.Bool("final", true).Bool("stopped_early", stopped_early);
  options_.sink->Write(record.Finish());
  ++emit_count_;
}

void ConvergenceTracker::Finish(bool stopped_early) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  stopped_early_ = stopped_early;
  EmitLocked(/*final=*/true, stopped_early);
}

std::uint64_t ConvergenceTracker::emit_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return emit_count_;
}

}  // namespace chameleon::obs
