#include "harness.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon::bench {
namespace {

BenchResult MakeResult(const std::string& name, double median_ns,
                       double mad_ns) {
  BenchResult r;
  r.name = name;
  r.median_ns = median_ns;
  r.mad_ns = mad_ns;
  r.mean_ns = median_ns;
  r.min_ns = median_ns;
  r.max_ns = median_ns;
  r.iterations = 100;
  r.reps = 5;
  return r;
}

BenchSuite MakeSuite(std::vector<BenchResult> results) {
  BenchSuite suite;
  suite.schema = std::string(kBenchSchema);
  suite.suite = "test";
  suite.benchmarks = std::move(results);
  return suite;
}

TEST(StatsTest, MedianHandlesOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, MadIsRobustToOutliers) {
  const std::vector<double> values = {10.0, 10.0, 10.0, 10.0, 1000.0};
  const double median = Median(values);
  EXPECT_DOUBLE_EQ(median, 10.0);
  // One wild outlier does not move the MAD off zero deviation.
  EXPECT_DOUBLE_EQ(MedianAbsDeviation(values, median), 0.0);
  EXPECT_DOUBLE_EQ(MedianAbsDeviation({1.0, 2.0, 3.0}, 2.0), 1.0);
}

TEST(MeasureTest, CalibratesAndReportsSaneStats) {
  BenchOptions options = BenchOptions::Quick();
  options.reps = 3;
  options.min_rep_seconds = 0.001;
  int calls = 0;
  const BenchResult result = MeasureBenchmark(
      "probe",
      [&calls](BenchContext& context) {
        ++calls;
        volatile std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < context.iterations(); ++i) acc = acc + i;
        static_cast<void>(acc);
        context.SetItemsPerIteration(2);
      },
      options);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(result.name, "probe");
  EXPECT_GE(result.iterations, 1u);
  EXPECT_EQ(result.reps, 3);
  EXPECT_GT(result.median_ns, 0.0);
  EXPECT_LE(result.min_ns, result.median_ns);
  EXPECT_GE(result.max_ns, result.median_ns);
  EXPECT_GT(result.items_per_sec, 0.0);  // 2 items/iter declared
}

TEST(MeasureTest, SlowFirstCallStaysOutOfCalibration) {
  // A benchmark that builds a static fixture on its first call: 100 ms
  // once, then 1 ms per iteration. Calibration must see the iterations,
  // not the build, and grow past one iteration toward the 50 ms rep.
  BenchOptions options;
  options.reps = 1;
  options.warmup_reps = 0;
  options.min_rep_seconds = 0.05;
  bool built = false;
  const BenchResult result = MeasureBenchmark(
      "fixture",
      [&built](BenchContext& context) {
        if (!built) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          built = true;
        }
        for (std::uint64_t i = 0; i < context.iterations(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      options);
  EXPECT_GT(result.iterations, 1u);
  EXPECT_LT(result.median_ns, 50e6);
}

TEST(BenchFileTest, WriteLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/bench_roundtrip.json";
  std::remove(path.c_str());
  const std::vector<BenchResult> results = {MakeResult("alpha", 120.5, 2.5),
                                            MakeResult("beta", 99000.0, 10.0)};
  BenchOptions options;
  ASSERT_TRUE(WriteBenchFile(path, "core", results, options).ok());

  const Result<BenchSuite> loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->schema, kBenchSchema);
  EXPECT_EQ(loaded->suite, "core");
  EXPECT_FALSE(loaded->quick);
  EXPECT_FALSE(loaded->git_sha.empty());
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[0].name, "alpha");
  EXPECT_DOUBLE_EQ(loaded->benchmarks[0].median_ns, 120.5);
  EXPECT_DOUBLE_EQ(loaded->benchmarks[0].mad_ns, 2.5);
  EXPECT_EQ(loaded->benchmarks[0].iterations, 100u);
  EXPECT_EQ(loaded->benchmarks[1].name, "beta");
  EXPECT_DOUBLE_EQ(loaded->benchmarks[1].median_ns, 99000.0);
}

TEST(BenchFileTest, QuickModeIsStamped) {
  const std::string path = testing::TempDir() + "/bench_quick.json";
  ASSERT_TRUE(WriteBenchFile(path, "core", {MakeResult("a", 1.0, 0.0)},
                             BenchOptions::Quick())
                  .ok());
  const Result<BenchSuite> loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->quick);
}

TEST(BenchFileTest, RejectsForeignFiles) {
  const std::string path = testing::TempDir() + "/bench_foreign.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"something\":\"else\"}\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadBenchFile(path).ok());
  EXPECT_FALSE(LoadBenchFile(testing::TempDir() + "/does_not_exist.json").ok());
}

TEST(DiffTest, IdenticalSuitesHaveNoRegressions) {
  const BenchSuite suite = MakeSuite(
      {MakeResult("a", 100.0, 1.0), MakeResult("b", 5000.0, 50.0)});
  const DiffReport report = CompareBenchSuites(suite, suite, DiffOptions());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 0);
  ASSERT_EQ(report.entries.size(), 2u);
  for (const DiffEntry& e : report.entries) {
    EXPECT_EQ(e.verdict, DiffVerdict::kUnchanged);
    EXPECT_DOUBLE_EQ(e.ratio, 1.0);
  }
}

TEST(DiffTest, DetectsInjectedTwoTimesSlowdown) {
  const BenchSuite baseline = MakeSuite(
      {MakeResult("a", 100.0, 1.0), MakeResult("b", 5000.0, 50.0)});
  const BenchSuite current = MakeSuite(
      {MakeResult("a", 100.0, 1.0), MakeResult("b", 10000.0, 50.0)});
  const DiffReport report = CompareBenchSuites(baseline, current,
                                               DiffOptions());
  EXPECT_EQ(report.regressions, 1);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].verdict, DiffVerdict::kUnchanged);
  EXPECT_EQ(report.entries[1].verdict, DiffVerdict::kRegression);
  EXPECT_DOUBLE_EQ(report.entries[1].ratio, 2.0);
}

TEST(DiffTest, NoiseFloorSuppressesJitteryRegressions) {
  // 20% slower, but the MAD noise floor (3 x 400 = 1200 > delta 1000)
  // swallows it: noisy benchmarks cannot fail CI on jitter.
  const BenchSuite baseline = MakeSuite({MakeResult("n", 5000.0, 400.0)});
  const BenchSuite current = MakeSuite({MakeResult("n", 6000.0, 400.0)});
  const DiffReport report = CompareBenchSuites(baseline, current,
                                               DiffOptions());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.entries[0].verdict, DiffVerdict::kUnchanged);

  // The same delta with tight MADs is a real regression.
  const BenchSuite tight_base = MakeSuite({MakeResult("n", 5000.0, 10.0)});
  const BenchSuite tight_cur = MakeSuite({MakeResult("n", 6000.0, 10.0)});
  EXPECT_EQ(
      CompareBenchSuites(tight_base, tight_cur, DiffOptions()).regressions, 1);
}

TEST(DiffTest, ImprovementsAndMembershipChangesAreNotFailures) {
  const BenchSuite baseline = MakeSuite(
      {MakeResult("faster", 1000.0, 5.0), MakeResult("removed", 50.0, 1.0)});
  const BenchSuite current = MakeSuite(
      {MakeResult("faster", 500.0, 5.0), MakeResult("added", 70.0, 1.0)});
  const DiffReport report = CompareBenchSuites(baseline, current,
                                               DiffOptions());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 1);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].verdict, DiffVerdict::kImprovement);
  EXPECT_EQ(report.entries[1].verdict, DiffVerdict::kOnlyBaseline);
  EXPECT_EQ(report.entries[2].verdict, DiffVerdict::kOnlyCurrent);
}

TEST(DiffTest, FormatReportMentionsEveryVerdict) {
  const BenchSuite baseline = MakeSuite({MakeResult("slow", 100.0, 1.0)});
  const BenchSuite current = MakeSuite({MakeResult("slow", 300.0, 1.0)});
  const DiffOptions options;
  const DiffReport report = CompareBenchSuites(baseline, current, options);
  const std::string text = FormatDiffReport(report, options);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("1 regression(s)"), std::string::npos);
  EXPECT_NE(text.find("slow"), std::string::npos);
}

TEST(RegistryTest, RegistrationOrderIsPreservedAndFilterable) {
  // bench_core registers via CHAMELEON_BENCHMARK at static init; this
  // test binary registers its own entries here.
  RegisterBenchmark("reg_order_first", [](BenchContext&) {});
  RegisterBenchmark("reg_order_second", [](BenchContext&) {});
  const std::vector<std::string> names = RegisteredBenchmarkNames();
  std::ptrdiff_t first = -1;
  std::ptrdiff_t second = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "reg_order_first") first = static_cast<std::ptrdiff_t>(i);
    if (names[i] == "reg_order_second") second = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_NE(first, -1);
  ASSERT_NE(second, -1);
  EXPECT_LT(first, second);

  BenchOptions options = BenchOptions::Quick();
  options.reps = 1;
  options.min_rep_seconds = 1e-6;
  options.filter = "reg_order_first";
  const std::vector<BenchResult> results = RunRegisteredBenchmarks(options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "reg_order_first");
}

/// A fake gate arm: each call returns the next per-rep time from
/// `rep_ns` (cycling), scaled by the iteration count it is asked for, so
/// the paired rule sees exactly the script. The first baseline call is
/// the calibration probe.
GateArm ScriptedArm(std::vector<double> rep_ns) {
  auto call = std::make_shared<std::size_t>(0);
  return [rep_ns = std::move(rep_ns), call](std::size_t iterations) {
    const double ns = rep_ns[(*call)++ % rep_ns.size()];
    return ns * static_cast<double>(iterations);
  };
}

TEST(PairedGateTest, PassesInsideTheBudget) {
  // 1% over a 150 ms baseline, under a 2% budget, with no noise at all.
  const GateVerdict verdict =
      RunPairedGate("BM_Base", ScriptedArm({150e6}), "BM_Hooked",
                    ScriptedArm({151.5e6}), 0.02, 9);
  EXPECT_TRUE(verdict.passed);
  EXPECT_NEAR(verdict.overhead, 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(verdict.noise_ns, 0.0);
  EXPECT_EQ(verdict.baseline.name, "BM_Base");
  EXPECT_EQ(verdict.candidate.name, "BM_Hooked");
  // The probe already took >= 75 ms, so one iteration is a rep.
  EXPECT_EQ(verdict.baseline.iterations, 1u);
  EXPECT_EQ(verdict.candidate.iterations, 1u);
  EXPECT_EQ(verdict.baseline.reps, 9);
  EXPECT_DOUBLE_EQ(verdict.baseline.median_ns, 150e6);
  EXPECT_DOUBLE_EQ(verdict.candidate.median_ns, 151.5e6);
}

TEST(PairedGateTest, PassesAboveTheBudgetInsideTheNoiseFloor) {
  // +5% against a 2% budget, but the baseline's reps swing by 10 ms
  // around their median: the noise floor is 30 ms and the delta 7.5 ms.
  const GateVerdict verdict = RunPairedGate(
      "BM_Base", ScriptedArm({150e6, 140e6, 160e6}), "BM_Hooked",
      ScriptedArm({157.5e6}), 0.02, 9);
  EXPECT_GT(verdict.overhead, verdict.budget);
  EXPECT_DOUBLE_EQ(verdict.noise_ns, 30e6);
  EXPECT_LT(verdict.delta_ns, verdict.noise_ns);
  EXPECT_TRUE(verdict.passed);
}

TEST(PairedGateTest, FailsAboveTheBudgetAndTheNoiseFloor) {
  const GateVerdict verdict =
      RunPairedGate("BM_Base", ScriptedArm({150e6, 149e6, 151e6}),
                    "BM_Hooked", ScriptedArm({165e6}), 0.02, 9);
  EXPECT_NEAR(verdict.overhead, 0.1, 1e-12);
  EXPECT_GT(verdict.delta_ns, verdict.noise_ns);
  EXPECT_FALSE(verdict.passed);
  EXPECT_NE(FormatGateVerdict("probe", verdict).find("FAIL"),
            std::string::npos);
}

TEST(PairedGateTest, CalibratesTheBaselineToAboutAHundredFiftyMs) {
  // 1 us per iteration: doubling stops at 2^17 iterations (~131 ms, the
  // first probe >= 75 ms), which then scales to ~150 ms.
  std::vector<std::size_t> probes;
  const GateArm baseline = [&probes](std::size_t iterations) {
    probes.push_back(iterations);
    return 1e3 * static_cast<double>(iterations);
  };
  const GateVerdict verdict = RunPairedGate(
      "BM_Base", baseline, "BM_Hooked",
      [](std::size_t iterations) {
        return 1e3 * static_cast<double>(iterations);
      },
      0.02, 3);
  ASSERT_GE(probes.size(), 2u);
  EXPECT_EQ(probes.front(), 1u);
  EXPECT_NEAR(static_cast<double>(verdict.baseline.iterations) * 1e3,
              kGateRepNanos, 1e3);
  // Three timed reps of each arm after the probes, every one at the
  // calibrated count.
  EXPECT_EQ(probes.back(), verdict.baseline.iterations);
  EXPECT_DOUBLE_EQ(verdict.baseline.median_ns, 1e3);
  EXPECT_TRUE(verdict.passed);
}

/// Runs Main on the gates and benchmarks matching `filter`, three reps,
/// writing the BENCH file to `path`.
int RunMain(const std::string& filter, const std::string& path) {
  std::string filter_flag = "--filter=" + filter;
  std::string out_flag = "--out=" + path;
  std::string reps_flag = "--reps=3";
  char name[] = "chameleon_bench_test";
  char* argv[] = {name, filter_flag.data(), out_flag.data(),
                  reps_flag.data()};
  return Main(4, argv, "test");
}

TEST(PairedGateTest, MainRunsRegisteredGatesIntoOneBenchFile) {
  RegisterGate("main_gate_pass", [](int reps) -> Result<GateOutcome> {
    return GateOutcome{RunPairedGate("BM_PassBase", ScriptedArm({150e6}),
                                     "BM_PassHooked", ScriptedArm({150e6}),
                                     0.02, reps),
                       {}};
  });
  RegisterGate("main_gate_skip", [](int) -> Result<GateOutcome> {
    return GateOutcome{{}, "engine unavailable"};
  });
  RegisterGate("main_gate_fail", [](int reps) -> Result<GateOutcome> {
    return GateOutcome{RunPairedGate("BM_FailBase", ScriptedArm({150e6}),
                                     "BM_FailHooked", ScriptedArm({300e6}),
                                     0.02, reps),
                       {}};
  });
  RegisterGate("main_gate_check", [](int) -> Result<GateOutcome> {
    return Status::Internal("the dormant arm recorded events");
  });

  const std::string path = testing::TempDir() + "/bench_gates.json";
  // A filter that matches nothing is an error.
  EXPECT_EQ(RunMain("no_such_gate", path), 1);
  // A passing gate exits 0 and leaves its rows under its arms' names.
  EXPECT_EQ(RunMain("main_gate_pass", path), 0);
  Result<BenchSuite> loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[0].name, "BM_PassBase");
  EXPECT_EQ(loaded->benchmarks[1].name, "BM_PassHooked");
  EXPECT_EQ(loaded->benchmarks[0].reps, 3);
  // A skipped gate is not a failure.
  EXPECT_EQ(RunMain("main_gate_skip", path), 0);
  // A failed rule (whose rows are still written) and a failed check each
  // exit 1.
  EXPECT_EQ(RunMain("main_gate_fail", path), 1);
  loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[1].name, "BM_FailHooked");
  EXPECT_EQ(RunMain("main_gate_check", path), 1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(PairedGateTest, FilteredRunWritesOnlyToAnExplicitOut) {
  RegisterGate("main_filtered_pass", [](int reps) -> Result<GateOutcome> {
    return GateOutcome{RunPairedGate("BM_FilteredBase", ScriptedArm({150e6}),
                                     "BM_FilteredHooked",
                                     ScriptedArm({150e6}), 0.02, reps),
                       {}};
  });
  // A working directory holding the suite's full baseline, which Main
  // would write by default.
  const std::string dir = testing::TempDir() + "/bench_filtered";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string baseline_path = dir + "/BENCH_test.json";
  ASSERT_TRUE(WriteBenchFile(baseline_path, "test",
                             {MakeResult("BM_A", 10.0, 1.0),
                              MakeResult("BM_B", 20.0, 1.0),
                              MakeResult("BM_C", 30.0, 1.0)},
                             BenchOptions{})
                  .ok());
  const std::string baseline = ReadFile(baseline_path);

  char cwd[4096];
  ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
  ASSERT_EQ(::chdir(dir.c_str()), 0);
  std::string filter_flag = "--filter=main_filtered_pass";
  std::string reps_flag = "--reps=3";
  char name[] = "chameleon_bench_test";
  char* argv[] = {name, filter_flag.data(), reps_flag.data()};
  testing::internal::CaptureStdout();
  const int exit_code = Main(3, argv, "test");
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_EQ(::chdir(cwd), 0);

  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(out.find("no BENCH file written"), std::string::npos) << out;
  EXPECT_EQ(ReadFile(baseline_path), baseline);

  // An explicit --out still writes the filtered rows.
  EXPECT_EQ(RunMain("main_filtered_pass", baseline_path), 0);
  const Result<BenchSuite> loaded = LoadBenchFile(baseline_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[0].name, "BM_FilteredBase");
}

TEST(SpeedupGateTest, PassesAtOrAboveTheFloor) {
  // 150 ms on one worker, 100 ms on two: 1.5x against a 1.3x floor.
  GateOutcome outcome =
      RunSpeedupGate("BM_Serial", ScriptedArm({150e6}), "BM_TwoWorkers",
                     ScriptedArm({100e6}), 1.3, 2, 4, 9);
  ASSERT_TRUE(outcome.skipped.empty());
  EXPECT_TRUE(outcome.verdict.passed);
  EXPECT_DOUBLE_EQ(outcome.verdict.speedup, 1.5);
  EXPECT_DOUBLE_EQ(outcome.verdict.min_speedup, 1.3);
  EXPECT_EQ(outcome.verdict.baseline.name, "BM_Serial");
  EXPECT_EQ(outcome.verdict.candidate.name, "BM_TwoWorkers");
  EXPECT_EQ(outcome.verdict.baseline.reps, 9);
  EXPECT_NE(FormatGateVerdict("probe", outcome.verdict)
                .find("speedup 1.50x (floor 1.30x): PASS"),
            std::string::npos);
  // Exactly at the floor passes: the gate fails only below it.
  outcome = RunSpeedupGate("BM_Serial", ScriptedArm({130e6}), "BM_TwoWorkers",
                           ScriptedArm({100e6}), 1.3, 2, 2, 9);
  EXPECT_TRUE(outcome.verdict.passed);
}

TEST(SpeedupGateTest, FailsANoisyCandidateBelowTheFloor) {
  // Medians 150 and 125 ms, a 1.2x speedup, with both arms swinging by
  // 20 ms around them: a 60 ms noise floor. The 1.3x floor asks for a
  // two-worker median of 115.4 ms, 9.6 ms under the measured one, so a
  // noise-floor exemption would forgive the miss; the rule has none.
  const GateOutcome outcome = RunSpeedupGate(
      "BM_Serial", ScriptedArm({150e6, 130e6, 170e6}), "BM_TwoWorkers",
      ScriptedArm({125e6, 105e6, 145e6}), 1.3, 2, 4, 9);
  ASSERT_TRUE(outcome.skipped.empty());
  EXPECT_NEAR(outcome.verdict.speedup, 1.2, 1e-12);
  EXPECT_DOUBLE_EQ(outcome.verdict.noise_ns, 60e6);
  EXPECT_LT(125e6 - 150e6 / 1.3, outcome.verdict.noise_ns);
  EXPECT_FALSE(outcome.verdict.passed);
  EXPECT_NE(FormatGateVerdict("probe", outcome.verdict)
                .find("speedup 1.20x (floor 1.30x): FAIL"),
            std::string::npos);
}

TEST(SpeedupGateTest, SkipsWithoutTimingOnTooFewCpus) {
  int calls = 0;
  const GateArm counted = [&calls](std::size_t iterations) {
    ++calls;
    return 150e6 * static_cast<double>(iterations);
  };
  const GateOutcome outcome = RunSpeedupGate(
      "BM_Serial", counted, "BM_TwoWorkers", counted, 1.3, 2, 1, 9);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(outcome.skipped, "needs 2 CPUs, this process may use 1");
}

TEST(SpeedupGateTest, MainNamesTheSpeedupAndTheFloor) {
  RegisterGate("main_speedup_fail", [](int reps) -> Result<GateOutcome> {
    return RunSpeedupGate("BM_SlowSerial", ScriptedArm({150e6}),
                          "BM_SlowTwoWorkers", ScriptedArm({125e6}), 1.3, 2,
                          4, reps);
  });
  RegisterGate("main_speedup_skip", [](int reps) -> Result<GateOutcome> {
    return RunSpeedupGate("BM_LoneSerial", ScriptedArm({150e6}),
                          "BM_LoneTwoWorkers", ScriptedArm({100e6}), 1.3, 2,
                          1, reps);
  });
  const std::string path = testing::TempDir() + "/bench_speedup.json";

  testing::internal::CaptureStderr();
  EXPECT_EQ(RunMain("main_speedup_fail", path), 1);
  const std::string failure = testing::internal::GetCapturedStderr();
  EXPECT_NE(failure.find("FAIL: gate main_speedup_fail: speedup 1.20x is "
                         "below the 1.30x floor"),
            std::string::npos)
      << failure;
  const Result<BenchSuite> loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[1].name, "BM_SlowTwoWorkers");

  testing::internal::CaptureStdout();
  EXPECT_EQ(RunMain("main_speedup_skip", path), 0);
  const std::string skipped = testing::internal::GetCapturedStdout();
  EXPECT_NE(skipped.find("gate main_speedup_skip: skipped (needs 2 CPUs, "
                         "this process may use 1)"),
            std::string::npos)
      << skipped;
}

}  // namespace
}  // namespace chameleon::bench
