#ifndef CHAMELEON_BENCH_HARNESS_H_
#define CHAMELEON_BENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/graph/edge.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/util/common.h"
#include "chameleon/util/status.h"

/// \file harness.h
/// The one benchmark harness: every binary under bench/ is a list of
/// registered benchmarks and overhead gates run by the shared Main():
///
///   chameleon_bench_core --out=BENCH_core.json          # a suite
///   chameleon_bench_overhead --out=BENCH_overhead.json  # the gates
///   chameleon_bench_diff BENCH_old.json BENCH_new.json  # regression gate
///
/// Each registered benchmark is calibrated (iterations doubled until one
/// repetition exceeds `min_rep_seconds`), warmed up, then timed for
/// `reps` repetitions; the reported statistic is the median ns/iteration
/// with the median absolute deviation (MAD) as the robust noise measure
/// the diff gate uses. An overhead gate times two arms of the same loop
/// under the paired rule of RunPairedGate. The canonical
/// `BENCH_<suite>.json` embeds the same build/host provenance as a
/// RunManifest so a number can always be traced to the exact SHA +
/// compiler + host that produced it.

namespace chameleon::bench {

/// Passed to the benchmark function: run the measured operation exactly
/// `iterations()` times. Optionally declare per-iteration item counts
/// (edges sampled, worlds evaluated) for a throughput column.
class BenchContext {
 public:
  explicit BenchContext(std::uint64_t iterations) : iterations_(iterations) {}

  std::uint64_t iterations() const { return iterations_; }

  void SetItemsPerIteration(std::uint64_t items) {
    items_per_iteration_ = items;
  }
  std::uint64_t items_per_iteration() const { return items_per_iteration_; }

 private:
  std::uint64_t iterations_;
  std::uint64_t items_per_iteration_ = 0;
};

using BenchFn = std::function<void(BenchContext&)>;

/// Keeps `value` observable so the compiler cannot delete the measured
/// computation as dead code.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct BenchOptions {
  /// Timed repetitions (median/MAD come from these).
  int reps = 9;
  /// Untimed repetitions before measuring (cache/branch warmup).
  int warmup_reps = 2;
  /// Calibration target: one repetition must run at least this long.
  double min_rep_seconds = 0.05;
  /// Substring filter on benchmark names; empty runs everything.
  std::string filter;

  /// CI quick mode: fewer reps, shorter calibration target.
  static BenchOptions Quick() {
    BenchOptions options;
    options.reps = 5;
    options.warmup_reps = 1;
    options.min_rep_seconds = 0.01;
    return options;
  }
};

struct BenchResult {
  std::string name;
  std::uint64_t iterations = 0;  ///< per timed repetition
  int reps = 0;
  double median_ns = 0.0;  ///< per-iteration, median over reps
  double mad_ns = 0.0;     ///< median absolute deviation over reps
  double mean_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  double items_per_sec = 0.0;  ///< 0 when the benchmark declared no items
};

/// Median / MAD of `values` (copied; empty input yields 0).
double Median(std::vector<double> values);
double MedianAbsDeviation(const std::vector<double>& values, double median);

/// Registry. Registration order is preserved; duplicate names are a
/// programming error and abort at registration time.
void RegisterBenchmark(std::string name, BenchFn fn);
std::vector<std::string> RegisteredBenchmarkNames();

/// Calibrates + measures one function (exposed for tests).
BenchResult MeasureBenchmark(std::string_view name, const BenchFn& fn,
                             const BenchOptions& options);

/// Runs every registered benchmark matching `options.filter`, logging one
/// line per benchmark to stderr.
std::vector<BenchResult> RunRegisteredBenchmarks(const BenchOptions& options);

/// The workload graph of every suite and gate: graph::RandomEdges on
/// `nodes` nodes at seed 2018 with p uniform in [0.1, 0.9), so a row
/// keeps its graph from run to run.
std::vector<graph::UncertainEdge> SeededEdges(NodeId nodes,
                                              double avg_degree);
graph::UncertainGraph SeededGraph(NodeId nodes, double avg_degree);

// --------------------------------------------------------------------------
// Paired overhead gates (chameleon_bench_overhead).
// --------------------------------------------------------------------------

/// One arm of a gate: runs its loop `iterations` times and returns the
/// wall nanoseconds of the loop alone, so set-up (an Rng, starting an
/// engine) stays out of the measurement.
using GateArm = std::function<double(std::size_t iterations)>;

/// A gate's reps are calibrated on its baseline arm to about this long.
inline constexpr double kGateRepNanos = 150e6;

/// The paired rule's verdict. The rows hold ns per iteration, like every
/// BENCH row; the rule itself reads per-rep medians.
struct GateVerdict {
  BenchResult baseline;
  BenchResult candidate;
  double budget = 0.0;
  double overhead = 0.0;  ///< (candidate − baseline) / baseline, medians
  double delta_ns = 0.0;  ///< candidate − baseline median, per rep
  double noise_ns = 0.0;  ///< 3 × the worse arm's MAD, per rep
  bool passed = true;     ///< false iff overhead > budget and delta > noise
};

/// The paired rule: grow the iteration count on `baseline` until a rep
/// takes at least kGateRepNanos / 2, scale it to ~kGateRepNanos, time
/// `reps` reps of each arm alternately (so drift biases both), and fail
/// iff the candidate's median overhead exceeds `budget` AND its median
/// delta exceeds 3 × max(MAD) — jitter inside the noise floor is not
/// overhead. The rows carry the two names given.
GateVerdict RunPairedGate(std::string baseline_name, const GateArm& baseline,
                          std::string candidate_name, const GateArm& candidate,
                          double budget, int reps);

/// Verdict lines for stdout: both arms' per-rep medians and MADs, then
/// the overhead against the budget and the noise floor, and PASS or FAIL.
std::string FormatGateVerdict(std::string_view gate,
                              const GateVerdict& verdict);

/// What a registered gate returns: its verdict, or a note saying why the
/// engine it times cannot start in this build (OBS=OFF, a sanitizer),
/// which skips the gate without failing it. A non-OK status from the
/// gate is a failed check.
struct GateOutcome {
  GateVerdict verdict;
  std::string skipped;
};

using GateFn = std::function<Result<GateOutcome>(int reps)>;

/// Gate registry; same contract as the benchmark registry.
void RegisterGate(std::string name, GateFn fn);

/// The main of every bench binary, named `chameleon_bench_<suite>`:
/// flags --out (default BENCH_<suite>.json), --quick, --reps, --filter
/// (substring of a benchmark or gate name) and --list, plus --help and
/// --version through obs::ParseToolFlags. Runs the matching benchmarks,
/// then the matching gates, printing each gate's verdict, and writes
/// every row to one BENCH file. Exits 0 when everything ran (a skipped
/// gate included), 1 when a gate failed, nothing matched or the file
/// could not be written, 2 on a usage error.
int Main(int argc, char** argv, std::string_view suite);

/// A parsed (or about-to-be-written) BENCH_<suite>.json.
struct BenchSuite {
  std::string schema;  ///< "chameleon-bench-v1"
  std::string suite;   ///< e.g. "core"
  std::string git_sha;
  std::string git_describe;
  std::string hostname;  ///< from the "host" provenance block ("" pre-dates)
  std::int64_t cpus = 0;  ///< 0 when the file pre-dates the host block
  bool quick = false;
  std::vector<BenchResult> benchmarks;
};

inline constexpr std::string_view kBenchSchema = "chameleon-bench-v1";

/// Canonical BENCH JSON: pretty header with build/host provenance, one
/// benchmark object per line (which is what LoadBenchFile parses).
std::string BenchSuiteToJson(std::string_view suite,
                             const std::vector<BenchResult>& results,
                             const BenchOptions& options);

Status WriteBenchFile(const std::string& path, std::string_view suite,
                      const std::vector<BenchResult>& results,
                      const BenchOptions& options);

Result<BenchSuite> LoadBenchFile(const std::string& path);

// --------------------------------------------------------------------------
// Regression diffing (chameleon_bench_diff).
// --------------------------------------------------------------------------

struct DiffOptions {
  /// Relative slowdown that counts as a regression (0.10 = 10%).
  double rel_threshold = 0.10;
  /// Noise floor: the absolute delta must also exceed
  /// `mad_mult * max(baseline MAD, current MAD)`.
  double mad_mult = 3.0;
};

enum class DiffVerdict {
  kUnchanged,
  kImprovement,
  kRegression,
  kOnlyBaseline,  ///< benchmark disappeared (warning, not a failure)
  kOnlyCurrent,   ///< new benchmark (no baseline to compare)
};

struct DiffEntry {
  std::string name;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double ratio = 0.0;  ///< current/baseline; 0 when either side is missing
  /// The noise floor this comparison used:
  /// `mad_mult * max(baseline MAD, current MAD)`. 0 when either side is
  /// missing. Surfaced in failure messages so a CI regression verdict is
  /// self-explanatory without rerunning locally.
  double noise_ns = 0.0;
  DiffVerdict verdict = DiffVerdict::kUnchanged;
};

struct DiffReport {
  std::vector<DiffEntry> entries;  ///< baseline order, new names appended
  int regressions = 0;
  int improvements = 0;
};

DiffReport CompareBenchSuites(const BenchSuite& baseline,
                              const BenchSuite& current,
                              const DiffOptions& options);

/// Human-readable table, one line per entry plus a verdict summary.
std::string FormatDiffReport(const DiffReport& report,
                             const DiffOptions& options);

}  // namespace chameleon::bench

/// Registers `fn` (a `void(chameleon::bench::BenchContext&)`) under its
/// own name at static-init time.
#define CHAMELEON_BENCHMARK(fn)                                  \
  [[maybe_unused]] static const bool chameleon_bench_reg_##fn =  \
      (::chameleon::bench::RegisterBenchmark(#fn, fn), true)

/// Registers `fn` (a chameleon::bench::GateFn) as gate `name` at
/// static-init time.
#define CHAMELEON_GATE(name, fn)                                  \
  [[maybe_unused]] static const bool chameleon_gate_reg_##name =  \
      (::chameleon::bench::RegisterGate(#name, fn), true)

#endif  // CHAMELEON_BENCH_HARNESS_H_
