// Benchmark regression gate:
//
//   chameleon_bench_diff BENCH_baseline.json BENCH_current.json
//
// Exit codes: 0 = no regressions, 1 = at least one regression, 2 = usage
// or I/O error, 3 = no regressions but the two files were produced on
// different hosts (hostname or cpu count differ), so the numbers are not
// directly comparable — an annotation, not a failure; CI's hard gates
// self-diff on one runner and never see it. A benchmark regresses when
// its median slows down by more than --threshold AND the delta exceeds
// --mad_mult times the larger MAD of the two runs, so run-to-run jitter
// on a noisy host cannot fail CI on its own. Both must be finite and
// >= 0: a NaN fails every comparison, so it would pass every benchmark.

#include <cmath>
#include <cstdio>
#include <optional>

#include "chameleon/obs/crash_handler.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/util/flags.h"
#include "harness.h"

namespace chameleon {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_bench_diff: compare two BENCH_<suite>.json files and fail "
      "on perf regressions\n"
      "usage: chameleon_bench_diff [flags] <baseline.json> <current.json>");
  flags.AddDouble("threshold", 0.10,
                  "relative slowdown counted as a regression");
  flags.AddDouble("mad_mult", 3.0,
                  "noise floor: delta must exceed mad_mult * max(MAD)");
  if (const std::optional<int> exit_code =
          obs::ParseToolFlags(flags, "chameleon_bench_diff", argc, argv)) {
    return *exit_code;
  }
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "error: expected <baseline.json> <current.json>\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  for (const char* name : {"threshold", "mad_mult"}) {
    const double value = flags.GetDouble(name);
    if (!(std::isfinite(value) && value >= 0.0)) {
      std::fprintf(stderr, "error: --%s=%g must be finite and >= 0\n%s",
                   name, value, flags.Usage().c_str());
      return 2;
    }
  }
  static_cast<void>(obs::InstallCrashHandler());

  const Result<bench::BenchSuite> baseline =
      bench::LoadBenchFile(flags.positional()[0]);
  if (!baseline.ok()) {
    std::fprintf(stderr, "error: %s\n", baseline.status().ToString().c_str());
    return 2;
  }
  const Result<bench::BenchSuite> current =
      bench::LoadBenchFile(flags.positional()[1]);
  if (!current.ok()) {
    std::fprintf(stderr, "error: %s\n", current.status().ToString().c_str());
    return 2;
  }

  if (baseline->suite != current->suite) {
    std::fprintf(stderr, "warning: comparing suite \"%s\" to \"%s\"\n",
                 baseline->suite.c_str(), current->suite.c_str());
  }
  // Cross-host numbers answer "is this machine slower" as readily as "is
  // this code slower" — warn, and mark an otherwise-clean diff with exit
  // 3 so scripts can tell the verdicts apart. Files predating the host
  // block (empty hostname / 0 cpus) skip the check.
  bool host_mismatch = false;
  if (!baseline->hostname.empty() && !current->hostname.empty() &&
      baseline->hostname != current->hostname) {
    host_mismatch = true;
    std::fprintf(stderr,
                 "warning: baseline ran on host \"%s\" but current on "
                 "\"%s\" — medians are not directly comparable\n",
                 baseline->hostname.c_str(), current->hostname.c_str());
  }
  if (baseline->cpus > 0 && current->cpus > 0 &&
      baseline->cpus != current->cpus) {
    host_mismatch = true;
    std::fprintf(stderr,
                 "warning: baseline host had %lld cpus but current has "
                 "%lld — parallel benchmarks shift with the core count\n",
                 static_cast<long long>(baseline->cpus),
                 static_cast<long long>(current->cpus));
  }
  std::fprintf(stdout, "baseline: %s (%s)\ncurrent:  %s (%s)\n\n",
               flags.positional()[0].c_str(),
               baseline->git_describe.empty() ? "?"
                                             : baseline->git_describe.c_str(),
               flags.positional()[1].c_str(),
               current->git_describe.empty() ? "?"
                                            : current->git_describe.c_str());

  bench::DiffOptions options;
  options.rel_threshold = flags.GetDouble("threshold");
  options.mad_mult = flags.GetDouble("mad_mult");
  const bench::DiffReport report =
      bench::CompareBenchSuites(*baseline, *current, options);
  std::fprintf(stdout, "%s",
               bench::FormatDiffReport(report, options).c_str());
  if (report.regressions > 0) return 1;
  return host_mismatch ? 3 : 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
