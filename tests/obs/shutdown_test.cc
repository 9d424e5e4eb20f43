// Abnormal-termination behavior of the obs lifecycle: a run killed by
// SIGINT/SIGTERM or exiting without ShutdownObservability() must still
// leave a flushed JSONL stream ending in a run_summary record. Each case
// runs in a forked child so the signal/exit cannot take the test runner
// down with it.

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Finds the run_summary record, or "" when absent.
std::string FindSummary(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") == "run_summary") return line;
  }
  return "";
}

/// Forks; the child configures obs against `path`, emits one span, then
/// runs `terminate` (which must not return). Returns the child's wait
/// status.
template <typename Fn>
int RunChild(const std::string& path, Fn terminate) {
  std::fflush(nullptr);  // do not double-write inherited stdio buffers
  const pid_t pid = fork();
  if (pid == 0) {
    ObsOptions options;
    options.metrics_out = path;
    options.read_env = false;
    if (!InitObservability(options).ok()) _exit(97);
    { CHOBS_SPAN(span, "child_work"); }
    CHOBS_COUNT("child/progress", 1);
    terminate();
    _exit(98);  // terminate() must not return
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(ShutdownTest, SigtermStillWritesSignalledRunSummary) {
  const std::string path = testing::TempDir() + "/obs_shutdown_sigterm.jsonl";
  std::remove(path.c_str());

  const int status = RunChild(path, [] { raise(SIGTERM); });

  // The handler re-raises with SIG_DFL, so the child dies by SIGTERM.
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  const std::vector<std::string> lines = ReadLines(path);
  const std::string summary = FindSummary(lines);
  ASSERT_FALSE(summary.empty()) << "no run_summary flushed on SIGTERM";
  EXPECT_EQ(JsonlNumberField(summary, "signal"), SIGTERM);
  // The rest of the stream (the span) made it out too.
  bool saw_span = false;
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") == "span") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

TEST(ShutdownTest, SigintStillWritesSignalledRunSummary) {
  const std::string path = testing::TempDir() + "/obs_shutdown_sigint.jsonl";
  std::remove(path.c_str());

  const int status = RunChild(path, [] { raise(SIGINT); });

  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGINT);
  const std::string summary = FindSummary(ReadLines(path));
  ASSERT_FALSE(summary.empty());
  EXPECT_EQ(JsonlNumberField(summary, "signal"), SIGINT);
}

TEST(ShutdownTest, ExitWithoutShutdownWritesSummaryViaAtexit) {
  const std::string path = testing::TempDir() + "/obs_shutdown_exit.jsonl";
  std::remove(path.c_str());

  // std::exit runs atexit handlers; _exit would not. The summary must be
  // written with no "signal" annotation.
  const int status = RunChild(path, [] { std::exit(0); });

  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::string summary = FindSummary(ReadLines(path));
  ASSERT_FALSE(summary.empty()) << "no run_summary flushed at exit";
  EXPECT_FALSE(JsonlNumberField(summary, "signal").has_value());
  EXPECT_TRUE(JsonlNumberField(summary, "wall_ms").has_value());
  // Process rusage rides along in the summary.
  EXPECT_TRUE(JsonlNumberField(summary, "max_rss_kb").has_value());

  // So does the process-wide heap block: exact allocation totals plus
  // the peak RSS, present in every build config.
  EXPECT_NE(summary.find("\"heap\":{"), std::string::npos) << summary;
  ASSERT_TRUE(JsonlNumberField(summary, "cum_alloc_bytes").has_value());
  ASSERT_TRUE(JsonlNumberField(summary, "cum_allocs").has_value());
  ASSERT_TRUE(JsonlNumberField(summary, "cum_frees").has_value());
  ASSERT_TRUE(JsonlNumberField(summary, "peak_rss_kb").has_value());
  EXPECT_GT(*JsonlNumberField(summary, "peak_rss_kb"), 0.0);
  // The replacement operators count the child's startup allocations:
  // the totals cannot read zero.
  EXPECT_GT(*JsonlNumberField(summary, "cum_alloc_bytes"), 0.0);
  EXPECT_GT(*JsonlNumberField(summary, "cum_allocs"), 0.0);
}

TEST(ShutdownTest, ExplicitShutdownWritesExactlyOneSummary) {
  const std::string path = testing::TempDir() + "/obs_shutdown_clean.jsonl";
  std::remove(path.c_str());

  // Clean path: explicit shutdown, then normal exit. The atexit handler
  // must not add a second run_summary.
  const int status = RunChild(path, [] {
    ShutdownObservability();
    std::exit(0);
  });

  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  int summaries = 0;
  for (const std::string& line : ReadLines(path)) {
    if (JsonlStringField(line, "type") == "run_summary") ++summaries;
  }
  EXPECT_EQ(summaries, 1);
}

}  // namespace
}  // namespace chameleon::obs
