#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "chameleon/graph/generators.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::bench {
namespace {

std::vector<std::pair<std::string, BenchFn>>& Registry() {
  static auto* registry = new std::vector<std::pair<std::string, BenchFn>>();
  return *registry;
}

/// One timed repetition: `iterations` calls worth of work, wall ns total.
std::uint64_t TimeRep(const BenchFn& fn, std::uint64_t iterations,
                      std::uint64_t* items_out) {
  BenchContext context(iterations);
  const std::uint64_t start = MonotonicNanos();
  fn(context);
  const std::uint64_t elapsed = MonotonicNanos() - start;
  if (items_out != nullptr) *items_out = context.items_per_iteration();
  return elapsed;
}

constexpr std::uint64_t kMaxIterations = std::uint64_t{1} << 40;

std::vector<std::pair<std::string, GateFn>>& Gates() {
  static auto* gates = new std::vector<std::pair<std::string, GateFn>>();
  return *gates;
}

/// A gate arm's row: per-iteration order statistics of its rep times.
BenchResult GateRow(std::string name, std::size_t iterations,
                    const std::vector<double>& rep_ns) {
  std::vector<double> per_iter_ns;
  per_iter_ns.reserve(rep_ns.size());
  RunningStats stats;
  for (const double ns : rep_ns) {
    per_iter_ns.push_back(ns / static_cast<double>(iterations));
    stats.Add(per_iter_ns.back());
  }
  BenchResult row;
  row.name = std::move(name);
  row.iterations = iterations;
  row.reps = static_cast<int>(rep_ns.size());
  row.median_ns = Median(per_iter_ns);
  row.mad_ns = MedianAbsDeviation(per_iter_ns, row.median_ns);
  row.mean_ns = stats.mean();
  row.min_ns = stats.min();
  row.max_ns = stats.max();
  return row;
}

/// The timing loop both gate rules share, and every number either reads.
GateVerdict TimePairedArms(std::string baseline_name, const GateArm& baseline,
                           std::string candidate_name,
                           const GateArm& candidate, int reps) {
  std::size_t iterations = 1;
  for (;;) {
    const double ns = baseline(iterations);
    if (ns >= kGateRepNanos / 2.0 || iterations >= kMaxIterations) {
      iterations = static_cast<std::size_t>(
          static_cast<double>(iterations) *
          std::max(1.0, kGateRepNanos / std::max(ns, 1.0)));
      break;
    }
    iterations *= 2;
  }

  std::vector<double> baseline_ns;
  std::vector<double> candidate_ns;
  for (int rep = 0; rep < std::max(reps, 1); ++rep) {
    baseline_ns.push_back(baseline(iterations));
    candidate_ns.push_back(candidate(iterations));
  }

  GateVerdict verdict;
  verdict.baseline = GateRow(std::move(baseline_name), iterations, baseline_ns);
  verdict.candidate =
      GateRow(std::move(candidate_name), iterations, candidate_ns);
  const double baseline_median = Median(baseline_ns);
  const double candidate_median = Median(candidate_ns);
  verdict.delta_ns = candidate_median - baseline_median;
  verdict.overhead =
      baseline_median > 0.0 ? verdict.delta_ns / baseline_median : 0.0;
  verdict.noise_ns =
      3.0 * std::max(MedianAbsDeviation(baseline_ns, baseline_median),
                     MedianAbsDeviation(candidate_ns, candidate_median));
  verdict.speedup =
      candidate_median > 0.0 ? baseline_median / candidate_median : 0.0;
  return verdict;
}

/// Why a verdict failed, for the `FAIL: gate <name>:` line on stderr.
std::string GateFailure(const GateVerdict& verdict) {
  if (verdict.min_speedup > 0.0) {
    return StrFormat("speedup %.2fx is below the %.2fx floor",
                     verdict.speedup, verdict.min_speedup);
  }
  return StrFormat(
      "overhead %+.2f%% exceeds the %.2f%% budget and the delta %+.3f ms "
      "exceeds the %.3f ms noise floor",
      verdict.overhead * 100.0, verdict.budget * 100.0,
      verdict.delta_ns * 1e-6, verdict.noise_ns * 1e-6);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double MedianAbsDeviation(const std::vector<double>& values, double median) {
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::fabs(v - median));
  return Median(std::move(deviations));
}

void RegisterBenchmark(std::string name, BenchFn fn) {
  for (const auto& [existing, unused] : Registry()) {
    if (existing == name) {
      std::fprintf(stderr, "duplicate benchmark name: %s\n", name.c_str());
      std::abort();
    }
  }
  Registry().emplace_back(std::move(name), std::move(fn));
}

std::vector<std::string> RegisteredBenchmarkNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [name, unused] : Registry()) names.push_back(name);
  return names;
}

BenchResult MeasureBenchmark(std::string_view name, const BenchFn& fn,
                             const BenchOptions& options) {
  const auto min_rep_ns =
      static_cast<std::uint64_t>(options.min_rep_seconds * 1e9);

  // One untimed call first: a benchmark that builds a static fixture on
  // its first call would otherwise pass that build off as one long
  // iteration and stop calibration at 1.
  TimeRep(fn, 1, nullptr);

  // Calibrate: grow the iteration count until a repetition takes at least
  // min_rep_ns, so the per-iteration figure is not dominated by timer
  // granularity. Growth targets ~1.4x the minimum to converge fast
  // without overshooting wildly.
  std::uint64_t iterations = 1;
  std::uint64_t items = 0;
  while (true) {
    const std::uint64_t elapsed = TimeRep(fn, iterations, &items);
    if (elapsed >= min_rep_ns || iterations >= kMaxIterations) break;
    const double scale =
        static_cast<double>(min_rep_ns) * 1.4 /
        static_cast<double>(std::max<std::uint64_t>(elapsed, 1));
    const auto grown = static_cast<std::uint64_t>(
        static_cast<double>(iterations) * std::min(scale, 10.0));
    iterations = std::max(iterations + 1, grown);
  }

  for (int i = 0; i < options.warmup_reps; ++i) {
    TimeRep(fn, iterations, nullptr);
  }

  // The vector feeds the order statistics (median/MAD); the shared
  // Welford accumulator supplies mean/min/max in one pass.
  std::vector<double> per_iter_ns;
  per_iter_ns.reserve(static_cast<std::size_t>(std::max(options.reps, 1)));
  RunningStats rep_stats;
  for (int i = 0; i < std::max(options.reps, 1); ++i) {
    const std::uint64_t elapsed = TimeRep(fn, iterations, &items);
    const double ns = static_cast<double>(elapsed) /
                      static_cast<double>(iterations);
    per_iter_ns.push_back(ns);
    rep_stats.Add(ns);
  }

  BenchResult result;
  result.name = std::string(name);
  result.iterations = iterations;
  result.reps = static_cast<int>(per_iter_ns.size());
  result.median_ns = Median(per_iter_ns);
  result.mad_ns = MedianAbsDeviation(per_iter_ns, result.median_ns);
  result.min_ns = rep_stats.min();
  result.max_ns = rep_stats.max();
  result.mean_ns = rep_stats.mean();
  if (items > 0 && result.median_ns > 0.0) {
    result.items_per_sec =
        static_cast<double>(items) / (result.median_ns * 1e-9);
  }
  return result;
}

std::vector<BenchResult> RunRegisteredBenchmarks(const BenchOptions& options) {
  std::vector<BenchResult> results;
  for (const auto& [name, fn] : Registry()) {
    if (!options.filter.empty() &&
        name.find(options.filter) == std::string::npos) {
      continue;
    }
    std::fprintf(stderr, "bench: %-40s ", name.c_str());
    std::fflush(stderr);
    BenchResult result = MeasureBenchmark(name, fn, options);
    std::fprintf(stderr, "%12.1f ns/iter (mad %.1f, %llu iters x %d reps)\n",
                 result.median_ns, result.mad_ns,
                 static_cast<unsigned long long>(result.iterations),
                 result.reps);
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<graph::UncertainEdge> SeededEdges(NodeId nodes,
                                              double avg_degree) {
  Rng rng(2018);
  return graph::RandomEdges({.nodes = nodes, .avg_degree = avg_degree}, rng)
      .value();
}

graph::UncertainGraph SeededGraph(NodeId nodes, double avg_degree) {
  Rng rng(2018);
  return graph::RandomGraph({.nodes = nodes, .avg_degree = avg_degree}, rng)
      .value();
}

GateVerdict RunPairedGate(std::string baseline_name, const GateArm& baseline,
                          std::string candidate_name, const GateArm& candidate,
                          double budget, int reps) {
  GateVerdict verdict = TimePairedArms(std::move(baseline_name), baseline,
                                       std::move(candidate_name), candidate,
                                       reps);
  verdict.budget = budget;
  verdict.passed =
      !(verdict.overhead > budget && verdict.delta_ns > verdict.noise_ns);
  return verdict;
}

GateOutcome RunSpeedupGate(std::string baseline_name, const GateArm& baseline,
                           std::string candidate_name,
                           const GateArm& candidate, double min_speedup,
                           int workers, int cpus, int reps) {
  if (cpus < workers) {
    return GateOutcome{{}, StrFormat("needs %d CPUs, this process may use %d",
                                     workers, cpus)};
  }
  GateVerdict verdict = TimePairedArms(std::move(baseline_name), baseline,
                                       std::move(candidate_name), candidate,
                                       reps);
  verdict.min_speedup = min_speedup;
  verdict.passed = verdict.speedup >= min_speedup;
  return GateOutcome{std::move(verdict), {}};
}

std::string FormatGateVerdict(std::string_view gate,
                              const GateVerdict& verdict) {
  const auto ms_per_rep = [&](double ns_per_iteration) {
    return ns_per_iteration *
           static_cast<double>(verdict.baseline.iterations) * 1e-6;
  };
  std::string out = StrFormat(
      "gate %s: %llu iterations/rep, %d reps\n", std::string(gate).c_str(),
      static_cast<unsigned long long>(verdict.baseline.iterations),
      verdict.baseline.reps);
  for (const BenchResult* row : {&verdict.baseline, &verdict.candidate}) {
    out += StrFormat("  %-40s median %10.3f ms (MAD %.3f ms)\n",
                     row->name.c_str(), ms_per_rep(row->median_ns),
                     ms_per_rep(row->mad_ns));
  }
  if (verdict.min_speedup > 0.0) {
    return out + StrFormat("  speedup %.2fx (floor %.2fx): %s\n",
                           verdict.speedup, verdict.min_speedup,
                           verdict.passed ? "PASS" : "FAIL");
  }
  out += StrFormat(
      "  overhead %+.2f%% (budget %.2f%%), delta %+.3f ms (noise floor "
      "%.3f ms): %s\n",
      verdict.overhead * 100.0, verdict.budget * 100.0,
      verdict.delta_ns * 1e-6, verdict.noise_ns * 1e-6,
      verdict.passed ? "PASS" : "FAIL");
  return out;
}

void RegisterGate(std::string name, GateFn fn) {
  for (const auto& [existing, unused] : Gates()) {
    if (existing == name) {
      std::fprintf(stderr, "duplicate gate name: %s\n", name.c_str());
      std::abort();
    }
  }
  Gates().emplace_back(std::move(name), std::move(fn));
}

int Main(int argc, char** argv, std::string_view suite) {
  const std::string tool = "chameleon_bench_" + std::string(suite);
  const std::string bench_file = "BENCH_" + std::string(suite) + ".json";
  FlagSet flags(tool +
                ": run the registered benchmarks and overhead gates and "
                "write a canonical " +
                bench_file + " for chameleon_bench_diff");
  flags.AddString("out", bench_file,
                  "output BENCH json path (a --filter run writes only "
                  "when this is given)");
  flags.AddBool("quick", false, "CI mode: fewer reps, shorter calibration");
  flags.AddInt64("reps", 0, "timed repetitions (0: mode default)");
  flags.AddString("filter", "",
                  "only run benchmarks and gates whose name contains this");
  flags.AddBool("list", false, "list benchmark and gate names and exit");
  if (const std::optional<int> exit_code =
          obs::ParseToolFlags(flags, tool, argc, argv)) {
    return *exit_code;
  }
  if (flags.GetBool("list")) {
    for (const std::string& name : RegisteredBenchmarkNames()) {
      std::fprintf(stdout, "%s\n", name.c_str());
    }
    for (const auto& [name, unused] : Gates()) {
      std::fprintf(stdout, "%s\n", name.c_str());
    }
    return 0;
  }

  BenchOptions options;
  if (flags.GetBool("quick")) options = BenchOptions::Quick();
  if (flags.GetInt64("reps") > 0) {
    options.reps = static_cast<int>(flags.GetInt64("reps"));
  }
  options.filter = flags.GetString("filter");

  std::vector<BenchResult> rows = RunRegisteredBenchmarks(options);
  std::size_t matched = rows.size();
  int failed = 0;
  for (const auto& [name, fn] : Gates()) {
    if (!options.filter.empty() &&
        name.find(options.filter) == std::string::npos) {
      continue;
    }
    ++matched;
    const Result<GateOutcome> outcome = fn(options.reps);
    if (!outcome.ok()) {
      std::fprintf(stderr, "FAIL: gate %s: %s\n", name.c_str(),
                   outcome.status().ToString().c_str());
      ++failed;
      continue;
    }
    if (!outcome->skipped.empty()) {
      std::fprintf(stdout, "gate %s: skipped (%s)\n", name.c_str(),
                   outcome->skipped.c_str());
      continue;
    }
    const GateVerdict& verdict = outcome->verdict;
    std::fprintf(stdout, "%s", FormatGateVerdict(name, verdict).c_str());
    std::fflush(stdout);
    if (!verdict.passed) {
      std::fprintf(stderr, "FAIL: gate %s: %s\n", name.c_str(),
                   GateFailure(verdict).c_str());
      ++failed;
    }
    rows.push_back(verdict.baseline);
    rows.push_back(verdict.candidate);
  }
  if (matched == 0) {
    std::fprintf(stderr, "no benchmarks or gates matched filter \"%s\"\n",
                 options.filter.c_str());
    return 1;
  }

  // A filtered run holds only some rows; written to the default path it
  // would replace the suite's full baseline.
  if (!options.filter.empty() && !flags.WasSet("out")) {
    std::fprintf(stdout, "filtered run: no BENCH file written (pass --out "
                         "to write one)\n");
    return failed > 0 ? 1 : 0;
  }
  const std::string& out = flags.GetString("out");
  if (Status s = WriteBenchFile(out, suite, rows, options); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "wrote %s (%zu benchmarks)\n", out.c_str(),
               rows.size());
  return failed > 0 ? 1 : 0;
}

std::string BenchSuiteToJson(std::string_view suite,
                             const std::vector<BenchResult>& results,
                             const BenchOptions& options) {
  const obs::BuildInfo& build = obs::GetBuildInfo();
  const obs::HostInfo host = obs::GetHostInfo();

  std::string out;
  out += "{\n";
  out += StrFormat("  \"schema\":\"%s\",\n",
                   std::string(kBenchSchema).c_str());
  out += StrFormat("  \"suite\":\"%s\",\n",
                   JsonEscape(suite).c_str());
  out += StrFormat("  \"t_ms\":%llu,\n",
                   static_cast<unsigned long long>(WallUnixMillis()));
  out += StrFormat("  \"quick\":%s,\n",
                   options.min_rep_seconds < 0.05 ? "true" : "false");
  out += StrFormat("  \"reps\":%d,\n", options.reps);
  out += StrFormat(
      "  \"build\":{\"version\":\"%s\",\"git_sha\":\"%s\","
      "\"git_describe\":\"%s\",\"compiler\":\"%s %s\","
      "\"build_type\":\"%s\",\"sanitize\":\"%s\"},\n",
      JsonEscape(build.version).c_str(), JsonEscape(build.git_sha).c_str(),
      JsonEscape(build.git_describe).c_str(),
      JsonEscape(build.compiler_id).c_str(),
      JsonEscape(build.compiler_version).c_str(),
      JsonEscape(build.build_type).c_str(), JsonEscape(build.sanitize).c_str());
  out += StrFormat(
      "  \"host\":{\"hostname\":\"%s\",\"cpus\":%lld,"
      "\"page_size\":%lld},\n",
      JsonEscape(host.hostname).c_str(), static_cast<long long>(host.num_cpus),
      static_cast<long long>(host.page_size_bytes));
  out += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    // One complete object per line: shell pipelines parse these
    // line-by-line without a real JSON parser.
    out += StrFormat(
        "    {\"name\":\"%s\",\"iterations\":%llu,\"reps\":%d,"
        "\"median_ns\":%.3f,\"mad_ns\":%.3f,\"mean_ns\":%.3f,"
        "\"min_ns\":%.3f,\"max_ns\":%.3f,\"items_per_sec\":%.3f}%s\n",
        JsonEscape(r.name).c_str(),
        static_cast<unsigned long long>(r.iterations), r.reps, r.median_ns,
        r.mad_ns, r.mean_ns, r.min_ns, r.max_ns, r.items_per_sec,
        i + 1 < results.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

Status WriteBenchFile(const std::string& path, std::string_view suite,
                      const std::vector<BenchResult>& results,
                      const BenchOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << BenchSuiteToJson(suite, results, options);
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<BenchSuite> LoadBenchFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<obs::JsonValue> file = obs::ParseJson(text.str());

  BenchSuite suite;
  if (file.has_value()) {
    suite.schema = file->Str("schema");
    suite.suite = file->Str("suite");
    suite.quick = file->Flag("quick");
    if (const obs::JsonValue* build = file->Get("build")) {
      suite.git_sha = build->Str("git_sha");
      suite.git_describe = build->Str("git_describe");
    }
    // Host provenance, for the bench_diff cross-host warning.
    if (const obs::JsonValue* host = file->Get("host")) {
      suite.hostname = host->Str("hostname");
      suite.cpus = static_cast<std::int64_t>(host->Num("cpus"));
    }
    if (const obs::JsonValue* rows = file->Get("benchmarks")) {
      for (const obs::JsonValue& row : rows->elements()) {
        const obs::JsonValue* name = row.Get("name");
        const obs::JsonValue* median = row.Get("median_ns");
        if (name == nullptr || !name->is(obs::JsonValue::Kind::kString) ||
            median == nullptr ||
            !median->is(obs::JsonValue::Kind::kNumber)) {
          continue;
        }
        BenchResult r;
        r.name = name->str();
        r.median_ns = median->number();
        r.mad_ns = row.Num("mad_ns");
        r.mean_ns = row.Num("mean_ns");
        r.min_ns = row.Num("min_ns");
        r.max_ns = row.Num("max_ns");
        r.items_per_sec = row.Num("items_per_sec");
        r.iterations = static_cast<std::uint64_t>(row.Num("iterations"));
        r.reps = static_cast<int>(row.Num("reps"));
        suite.benchmarks.push_back(std::move(r));
      }
    }
  }

  if (suite.schema != kBenchSchema) {
    return Status::InvalidArgument(
        path + ": not a " + std::string(kBenchSchema) + " file (schema \"" +
        suite.schema + "\")");
  }
  return suite;
}

DiffReport CompareBenchSuites(const BenchSuite& baseline,
                              const BenchSuite& current,
                              const DiffOptions& options) {
  DiffReport report;
  const auto find = [](const BenchSuite& s,
                       const std::string& name) -> const BenchResult* {
    for (const BenchResult& r : s.benchmarks) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };

  for (const BenchResult& base : baseline.benchmarks) {
    DiffEntry entry;
    entry.name = base.name;
    entry.baseline_ns = base.median_ns;
    const BenchResult* cur = find(current, base.name);
    if (cur == nullptr) {
      entry.verdict = DiffVerdict::kOnlyBaseline;
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.current_ns = cur->median_ns;
    entry.ratio =
        base.median_ns > 0.0 ? cur->median_ns / base.median_ns : 0.0;

    // A change counts only when it clears BOTH the relative threshold and
    // the MAD noise floor; a 15% swing inside run-to-run jitter is noise,
    // not a regression.
    const double noise_ns =
        options.mad_mult * std::max(base.mad_ns, cur->mad_ns);
    entry.noise_ns = noise_ns;
    const double delta = cur->median_ns - base.median_ns;
    if (delta > base.median_ns * options.rel_threshold &&
        delta > noise_ns) {
      entry.verdict = DiffVerdict::kRegression;
      ++report.regressions;
    } else if (-delta > base.median_ns * options.rel_threshold &&
               -delta > noise_ns) {
      entry.verdict = DiffVerdict::kImprovement;
      ++report.improvements;
    } else {
      entry.verdict = DiffVerdict::kUnchanged;
    }
    report.entries.push_back(std::move(entry));
  }

  for (const BenchResult& cur : current.benchmarks) {
    if (find(baseline, cur.name) != nullptr) continue;
    DiffEntry entry;
    entry.name = cur.name;
    entry.current_ns = cur.median_ns;
    entry.verdict = DiffVerdict::kOnlyCurrent;
    report.entries.push_back(std::move(entry));
  }
  return report;
}

std::string FormatDiffReport(const DiffReport& report,
                             const DiffOptions& options) {
  std::string out = StrFormat(
      "%-40s %14s %14s %8s  %s\n", "benchmark", "baseline ns", "current ns",
      "ratio", "verdict");
  for (const DiffEntry& e : report.entries) {
    const char* verdict = "ok";
    switch (e.verdict) {
      case DiffVerdict::kUnchanged:
        verdict = "ok";
        break;
      case DiffVerdict::kImprovement:
        verdict = "IMPROVED";
        break;
      case DiffVerdict::kRegression:
        verdict = "REGRESSED";
        break;
      case DiffVerdict::kOnlyBaseline:
        verdict = "missing in current";
        break;
      case DiffVerdict::kOnlyCurrent:
        verdict = "new";
        break;
    }
    const auto ns_or_dash = [](double ns) {
      return ns > 0.0 ? StrFormat("%14.1f", ns) : StrFormat("%14s", "-");
    };
    out += StrFormat("%-40s %s %s %8s  %s\n", e.name.c_str(),
                     ns_or_dash(e.baseline_ns).c_str(),
                     ns_or_dash(e.current_ns).c_str(),
                     e.ratio > 0.0 ? StrFormat("%.3f", e.ratio).c_str() : "-",
                     verdict);
    // Failure detail: show the two gates the delta cleared, so a CI
    // verdict is actionable without rerunning locally.
    if (e.verdict == DiffVerdict::kRegression) {
      const double delta = e.current_ns - e.baseline_ns;
      out += StrFormat(
          "%-40s   +%.1f ns (%+.1f%%) exceeds both the %.0f%% threshold "
          "(%.1f ns) and the %.1fx-MAD noise floor (%.1f ns)\n",
          "", delta,
          e.baseline_ns > 0.0 ? 100.0 * delta / e.baseline_ns : 0.0,
          options.rel_threshold * 100.0,
          e.baseline_ns * options.rel_threshold, options.mad_mult,
          e.noise_ns);
    }
  }
  out += StrFormat(
      "\n%d regression(s), %d improvement(s) "
      "(threshold %.0f%%, noise floor %.1fx MAD)\n",
      report.regressions, report.improvements, options.rel_threshold * 100.0,
      options.mad_mult);
  return out;
}

}  // namespace chameleon::bench
