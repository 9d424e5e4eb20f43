#ifndef CHAMELEON_UTIL_TIMER_H_
#define CHAMELEON_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

/// \file timer.h
/// Monotonic wall-clock helpers. All durations in the obs layer are
/// nanoseconds from std::chrono::steady_clock so spans can never run
/// backwards under NTP adjustments.

namespace chameleon {

/// Nanoseconds on the monotonic clock (arbitrary epoch).
inline std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Milliseconds since the Unix epoch (wall clock, for log/sink timestamps).
inline std::uint64_t WallUnixMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Simple stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(MonotonicNanos()) {}

  std::uint64_t ElapsedNanos() const { return MonotonicNanos() - start_; }
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) * 1e-6;
  }

 private:
  std::uint64_t start_;
};

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_TIMER_H_
