#ifndef CHAMELEON_OBS_CONVERGENCE_H_
#define CHAMELEON_OBS_CONVERGENCE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "chameleon/obs/sink.h"
#include "chameleon/util/common.h"
#include "chameleon/util/stats.h"

/// \file convergence.h
/// Statistical convergence tracking for Monte Carlo estimators. A
/// ConvergenceTracker accumulates samples through the shared Welford
/// implementation (util/stats.h), maintains a confidence-interval
/// half-width — Wilson score for Bernoulli reliability indicators, normal
/// approximation otherwise — and answers ShouldStop() against two opt-in
/// stopping rules: an absolute CI half-width target and a relative-error
/// bound. Periodic `estimator_progress` JSONL records flow through the
/// record sink:
///
///   {"type":"estimator_progress","label":"reliability/two_terminal",
///    "t_ms":...,"samples":N,"mean":...,"stddev":...,"ci_halfwidth":...,
///    "rel_err":...,"rate_per_s":...}           — plus "final":true and
///    "stopped_early":bool on the record written by Finish().
///
/// Emission policy: a record is written whenever the sample count crosses
/// a geometric checkpoint (min_samples, then doubling) or the time
/// throttle elapses. The checkpoints guarantee that any run long enough
/// to converge leaves several records with visibly shrinking half-widths
/// (hw ~ 1/sqrt(n) drops ~29% per doubling) even when it finishes in
/// milliseconds.
///
/// Each tracker guards its state with its own mutex, so any thread may
/// call its members.

namespace chameleon::obs {

/// Normal-approximation CI half-width: z * sqrt(variance / n).
/// Returns 0 for n == 0.
double NormalCiHalfwidth(double variance, std::uint64_t n, double z);

/// Wilson score interval half-width for a Bernoulli proportion with
/// `successes` hits out of `n` trials. Better behaved than the Wald
/// interval near p = 0 or 1 — exactly where high-reliability estimates
/// live. Returns 0 for n == 0.
double WilsonCiHalfwidth(std::uint64_t successes, std::uint64_t n, double z);

struct ConvergenceOptions {
  /// Stop once the CI half-width falls to this value (0 = rule off).
  double target_ci_halfwidth = 0.0;
  /// Stop once half-width <= max_rel_err * |mean| (0 = rule off).
  double max_rel_err = 0.0;
  /// No stopping decision before this many samples.
  std::uint64_t min_samples = 100;
  /// Normal quantile for the CI (1.96 = 95%).
  double z = 1.96;
  /// Treat samples as Bernoulli indicators (Wilson half-width).
  bool bernoulli = false;
  /// Time throttle for periodic emission between geometric checkpoints.
  std::uint64_t min_emit_interval_nanos = 500'000'000;
  /// Explicit sink; when null and `use_global_sink`, the process-global
  /// sink is used (if observability is enabled).
  RecordSink* sink = nullptr;
  bool use_global_sink = true;
};

/// Point-in-time view of a tracker.
struct ConvergenceSnapshot {
  std::string label;
  std::uint64_t samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci_halfwidth = 0.0;
  /// ci_halfwidth / |mean|; 0 when the mean is 0.
  double rel_err = 0.0;
  double rate_per_s = 0.0;
  bool finished = false;
  bool stopped_early = false;
};

class ConvergenceTracker {
 public:
  explicit ConvergenceTracker(std::string_view label,
                              ConvergenceOptions options = {});
  ~ConvergenceTracker();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(ConvergenceTracker);

  /// Records one sample (normal-CI mode).
  void Add(double x);

  /// Records one Bernoulli indicator; the Wilson half-width applies when
  /// options.bernoulli is set.
  void AddBernoulli(bool success);

  /// True when a stopping rule is configured, min_samples is met, and
  /// the current half-width satisfies the target or relative-error rule.
  bool ShouldStop() const;

  /// True when either stopping rule is configured.
  bool has_stopping_rule() const {
    return options_.target_ci_halfwidth > 0.0 || options_.max_rel_err > 0.0;
  }

  ConvergenceSnapshot Snapshot() const;

  /// Emits the final estimator_progress record, which carries the
  /// stopping decision (idempotent; the destructor calls Finish(false)
  /// if nobody did).
  void Finish(bool stopped_early);

  /// Number of estimator_progress records written (throttle tests).
  std::uint64_t emit_count() const;

 private:
  ConvergenceSnapshot SnapshotLocked() const;
  bool ShouldStopLocked() const;
  void MaybeEmitLocked();
  void EmitLocked(bool final, bool stopped_early);

  const std::string label_;
  ConvergenceOptions options_;
  const std::uint64_t start_nanos_;

  mutable std::mutex mu_;
  RunningStats stats_;
  std::uint64_t successes_ = 0;
  std::uint64_t next_checkpoint_;
  std::uint64_t last_emit_nanos_ = 0;
  std::uint64_t emit_count_ = 0;
  bool finished_ = false;
  bool stopped_early_ = false;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_CONVERGENCE_H_
