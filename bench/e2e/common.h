#ifndef CHAMELEON_BENCH_E2E_COMMON_H_
#define CHAMELEON_BENCH_E2E_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/util/status.h"

/// \file common.h
/// Helpers the end-to-end benchmark owns outright: its hash mixer,
/// order statistics, SHA-256, file I/O, and a JSON reader for the tools'
/// result files. None of them call into the library's graph, rng or
/// reliability modules, so a change to those modules cannot move the
/// benchmark's inputs or its rulers.

namespace chameleon::bench_e2e {

/// splitmix64 step (the benchmark's own copy).
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Stateless hash of (a, b) through one splitmix64 step.
inline std::uint64_t HashPair(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0xd6e8feb86659fd93ull);
  return SplitMix64(state);
}

/// Top 53 bits of `bits` as a double in [0, 1).
inline double UnitInterval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double Median(std::vector<double> values);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method), so the spreads this benchmark
/// reports match the ones a reader recomputes from its raw values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

std::string Sha256Hex(std::string_view data);

Result<std::string> ReadFile(const std::string& path);

/// Writes to `path` through a temporary file and rename, so a killed run
/// never leaves a truncated file that a later run would trust.
Status WriteFileAtomic(const std::string& path, std::string_view data);

/// Resource use of one child process, from fork to wait4.
struct ChildUsage {
  /// Exit status, or -1 when a signal ended the child.
  int exit_code = -1;
  int signal = 0;
  double wall_s = 0.0;
  /// ru_utime + ru_stime.
  double cpu_s = 0.0;
  /// ru_maxrss in MiB.
  double peak_rss_mb = 0.0;
};

/// Runs the program at argv[0] with stdout and stderr sent to
/// `log_path`, and waits for it. The program is started by a fresh exec
/// of this binary in launcher mode (LaunchMain), so its peak RSS is its
/// own.
Result<ChildUsage> RunChild(const std::vector<std::string>& argv,
                            const std::string& log_path);

/// First argument that selects launcher mode:
///   <this binary> --launch <usage file> <program> <args...>
inline constexpr std::string_view kLaunchFlag = "--launch";

/// Launcher mode: runs the program, waits for it, and writes its exit
/// code, signal, wall seconds, CPU seconds and peak RSS (MiB) to the
/// usage file. Returns 0 when the usage file was written.
int LaunchMain(int argc, char** argv);

/// One top-level member of a JSON object. Nested objects and arrays are
/// validated but only their kind is kept.
struct JsonMember {
  enum class Kind { kString, kNumber, kBool, kNull, kObject, kArray };
  Kind kind = Kind::kNull;
  std::string text;
  double number = 0.0;
  bool boolean = false;
};

/// Parses a complete JSON document whose root is an object.
Result<std::map<std::string, JsonMember>> ParseJsonObject(
    std::string_view text);

}  // namespace chameleon::bench_e2e

#endif  // CHAMELEON_BENCH_E2E_COMMON_H_
