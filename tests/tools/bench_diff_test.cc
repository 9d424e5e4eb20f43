// Host-provenance contract of chameleon_bench_diff: comparing BENCH
// files recorded on different machines (hostname or cpu count differ)
// exits 3 — an annotation distinct from both "clean" (0) and
// "regression" (1) — and prints a warning naming both hosts. A real
// regression still wins: mismatched provenance never masks exit 1. A
// --threshold or --mad_mult that is not finite and >= 0 is a usage
// error (exit 2). Drives the real binary (path injected by CMake) over fabricated
// files, the only way to get two hostnames in one test process.

#include <sys/wait.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

namespace chameleon {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Runs `command`, capturing stdout via popen and stderr via a temp
/// file redirection.
RunResult RunCommand(const std::string& command) {
  RunResult result;
  const std::string stderr_path = testing::TempDir() + "/bd_stderr.txt";
  const std::string full = command + " 2>" + stderr_path;
  std::FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.stdout_text.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream err(stderr_path);
  result.stderr_text.assign(std::istreambuf_iterator<char>(err),
                            std::istreambuf_iterator<char>());
  std::remove(stderr_path.c_str());
  return result;
}

/// Writes a minimal but loader-complete BENCH file: the v1 schema
/// header with explicit host provenance and one benchmark.
std::string WriteBenchFile(const std::string& name,
                           const std::string& hostname, int cpus,
                           double median_ns) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\":\"chameleon-bench-v1\",\n"
      << "  \"suite\":\"diff_host_test\",\n"
      << "  \"t_ms\":1,\n"
      << "  \"quick\":false,\n"
      << "  \"reps\":5,\n"
      << "  \"build\":{\"version\":\"0\",\"git_sha\":\"abc\","
         "\"git_describe\":\"v-test\",\"compiler\":\"cc 0\","
         "\"build_type\":\"Release\",\"sanitize\":\"\",\"obs\":true},\n"
      << "  \"host\":{\"hostname\":\"" << hostname << "\",\"cpus\":" << cpus
      << ",\"page_size\":4096},\n"
      << "  \"benchmarks\": [\n"
      << "    {\"name\":\"BM_Probe\",\"iterations\":1000,\"reps\":5,"
         "\"median_ns\":"
      << median_ns
      << ",\"mad_ns\":0.5,\"mean_ns\":" << median_ns
      << ",\"min_ns\":" << median_ns << ",\"max_ns\":" << median_ns
      << ",\"items_per_sec\":0}\n"
      << "  ]\n}\n";
  return path;
}

TEST(BenchDiffHostTest, SameHostCleanDiffExitsZero) {
  const std::string baseline =
      WriteBenchFile("bd_base_same.json", "runner-a", 8, 100.0);
  const std::string current =
      WriteBenchFile("bd_cur_same.json", "runner-a", 8, 101.0);
  const RunResult result = RunCommand(std::string(BENCH_DIFF_BIN) + " " +
                                      baseline + " " + current);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stderr_text.find("warning:"), std::string::npos)
      << result.stderr_text;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(BenchDiffHostTest, HostnameMismatchAnnotatesWithExitThree) {
  const std::string baseline =
      WriteBenchFile("bd_base_host.json", "runner-a", 8, 100.0);
  const std::string current =
      WriteBenchFile("bd_cur_host.json", "runner-b", 8, 100.0);
  const RunResult result = RunCommand(std::string(BENCH_DIFF_BIN) + " " +
                                      baseline + " " + current);
  EXPECT_EQ(result.exit_code, 3) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("baseline ran on host \"runner-a\""),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("\"runner-b\""), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("not directly comparable"),
            std::string::npos)
      << result.stderr_text;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(BenchDiffHostTest, CpuCountMismatchAnnotatesWithExitThree) {
  const std::string baseline =
      WriteBenchFile("bd_base_cpus.json", "runner-a", 8, 100.0);
  const std::string current =
      WriteBenchFile("bd_cur_cpus.json", "runner-a", 64, 100.0);
  const RunResult result = RunCommand(std::string(BENCH_DIFF_BIN) + " " +
                                      baseline + " " + current);
  EXPECT_EQ(result.exit_code, 3) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("8 cpus"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("64"), std::string::npos)
      << result.stderr_text;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(BenchDiffHostTest, RegressionBeatsTheMismatchAnnotation) {
  // 100 -> 200 ns: past any threshold and any MAD floor. Exit 1, not 3 —
  // a regression verdict must never be downgraded by provenance.
  const std::string baseline =
      WriteBenchFile("bd_base_reg.json", "runner-a", 8, 100.0);
  const std::string current =
      WriteBenchFile("bd_cur_reg.json", "runner-b", 8, 200.0);
  const RunResult result = RunCommand(std::string(BENCH_DIFF_BIN) + " " +
                                      baseline + " " + current);
  EXPECT_EQ(result.exit_code, 1) << result.stderr_text;
  // The warning still prints; only the exit code prioritizes.
  EXPECT_NE(result.stderr_text.find("baseline ran on host"),
            std::string::npos)
      << result.stderr_text;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(BenchDiffHostTest, FilesWithoutHostBlockSkipTheCheck) {
  // Pre-provenance files (empty hostname, zero cpus) stay comparable:
  // the check needs both sides to carry the block.
  const std::string baseline =
      WriteBenchFile("bd_base_old.json", "", 0, 100.0);
  const std::string current =
      WriteBenchFile("bd_cur_old.json", "runner-b", 8, 100.0);
  const RunResult result = RunCommand(std::string(BENCH_DIFF_BIN) + " " +
                                      baseline + " " + current);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stderr_text.find("warning:"), std::string::npos)
      << result.stderr_text;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

TEST(BenchDiffOptionsTest, NonFiniteOrNegativeRuleIsAUsageError) {
  // Every median 3x the baseline's: a regression under any sane rule. A
  // NaN threshold or MAD multiple fails both comparisons of the rule, so
  // it used to report "0 regression(s)" and exit 0.
  const std::string baseline =
      WriteBenchFile("bd_base_nan.json", "runner-a", 8, 100.0);
  const std::string current =
      WriteBenchFile("bd_cur_nan.json", "runner-a", 8, 300.0);
  for (const std::string flag :
       {"--threshold=nan", "--threshold=inf", "--threshold=-0.1",
        "--threshold=-inf", "--mad_mult=nan", "--mad_mult=inf",
        "--mad_mult=-1"}) {
    const RunResult result =
        RunCommand(std::string(BENCH_DIFF_BIN) + " " + flag + " " +
                   baseline + " " + current);
    EXPECT_EQ(result.exit_code, 2) << flag << ": " << result.stdout_text;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(result.stderr_text.find("error: " + name + "="),
              std::string::npos)
        << flag << ": " << result.stderr_text;
  }
  // Zero is a legal rule (any slowdown, no noise floor) and still catches
  // the regression.
  const RunResult zero =
      RunCommand(std::string(BENCH_DIFF_BIN) +
                 " --threshold=0 --mad_mult=0 " + baseline + " " + current);
  EXPECT_EQ(zero.exit_code, 1) << zero.stderr_text;
  std::remove(baseline.c_str());
  std::remove(current.c_str());
}

}  // namespace
}  // namespace chameleon
