#ifndef CHAMELEON_UTIL_STATS_H_
#define CHAMELEON_UTIL_STATS_H_

#include <cmath>
#include <cstddef>
#include <limits>

/// \file stats.h
/// Numerically careful streaming statistics. KahanSum keeps O(1) error on
/// the long Monte Carlo accumulations (10^6+ terms); RunningStats is a
/// Welford mean/variance accumulator with min/max tracking.

namespace chameleon {

/// Compensated (Kahan-Babuska) summation.
class KahanSum {
 public:
  void Add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      compensation_ += (sum_ - t) + x;
    } else {
      compensation_ += (x - t) + sum_;
    }
    sum_ = t;
  }

  double value() const { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Welford's online mean/variance with min/max. This is the project's
/// single running-moment implementation: the Monte Carlo estimators, the
/// convergence trackers in chameleon/obs, and the bench harness all
/// accumulate through it rather than keeping ad-hoc sum loops.
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_STATS_H_
