// Crash forensics end to end: a forked child installs the handler,
// opens a span, and dies on a fatal signal; the parent asserts the
// child's wait status is the original signal AND the metrics stream ends
// with the full forensics trail — a `crash` record with a backtrace and
// a signalled `run_summary`. The children die via raise()/abort() rather
// than a real wild pointer so the same test stays meaningful under
// sanitizers (which intercept genuine faults before any user handler).

#include "chameleon/obs/crash_handler.h"

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

std::string FindRecord(const std::vector<std::string>& lines,
                       std::string_view type) {
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") == type) return line;
  }
  return "";
}

/// Forks; the child wires obs + crash handler against `path`, opens a
/// span, then runs `die` (which must not return).
/// Exit code 95 = crash forensics unavailable on this build (parent
/// turns that into a skip), 97 = obs init failed, 98 = `die` returned.
template <typename Fn>
int RunCrashChild(const std::string& path, Fn die) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    ObsOptions options;
    options.metrics_out = path;
    options.read_env = false;
    if (!InitObservability(options).ok()) _exit(97);
    if (!InstallCrashHandler().ok()) _exit(95);
    CHOBS_SPAN(span, "crash_phase");
    die();
    _exit(98);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

bool SkippedUnsupported(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 95;
}

TEST(CrashHandlerTest, SigsegvLeavesFullForensicsTrail) {
  const std::string path = testing::TempDir() + "/crash_sigsegv.jsonl";
  std::remove(path.c_str());

  const int status = RunCrashChild(path, [] { raise(SIGSEGV); });
  if (SkippedUnsupported(status)) {
    GTEST_SKIP() << "crash forensics unavailable in this build";
  }

  // The handler re-raises with the default disposition restored, so the
  // child's wait status reports the original signal.
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::vector<std::string> lines = ReadLines(path);
  const std::string crash = FindRecord(lines, "crash");
  ASSERT_FALSE(crash.empty()) << "no crash record flushed";
  EXPECT_EQ(JsonlNumberField(crash, "signal"), SIGSEGV);
  EXPECT_EQ(JsonlStringField(crash, "signal_name"), "SIGSEGV");
  EXPECT_NE(crash.find("\"frames\":[\""), std::string::npos)
      << "empty backtrace: " << crash;
  EXPECT_EQ(JsonlStringField(crash, "span_path"), "crash_phase");

  const std::string summary = FindRecord(lines, "run_summary");
  ASSERT_FALSE(summary.empty()) << "no run_summary flushed";
  EXPECT_EQ(JsonlNumberField(summary, "signal"), SIGSEGV);

  // The handler adds these two records and nothing else.
  EXPECT_TRUE(FindRecord(lines, "flight_event_dump").empty());
}

TEST(CrashHandlerTest, AbortIsCaughtAndReRaised) {
  const std::string path = testing::TempDir() + "/crash_abort.jsonl";
  std::remove(path.c_str());

  const int status = RunCrashChild(path, [] { std::abort(); });
  if (SkippedUnsupported(status)) {
    GTEST_SKIP() << "crash forensics unavailable in this build";
  }

  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const std::vector<std::string> lines = ReadLines(path);
  const std::string crash = FindRecord(lines, "crash");
  ASSERT_FALSE(crash.empty());
  EXPECT_EQ(JsonlStringField(crash, "signal_name"), "SIGABRT");
  // SIGABRT carries no faulting address.
  EXPECT_FALSE(JsonlStringField(crash, "fault_addr").has_value());
  EXPECT_FALSE(FindRecord(lines, "run_summary").empty());
}

TEST(CrashHandlerTest, SignalNamesAreStable) {
  EXPECT_STREQ(CrashSignalName(SIGSEGV), "SIGSEGV");
  EXPECT_STREQ(CrashSignalName(SIGABRT), "SIGABRT");
  EXPECT_STREQ(CrashSignalName(SIGFPE), "SIGFPE");
  EXPECT_STREQ(CrashSignalName(SIGINT), "signal");
}

// Runs last: installs the handler in the test runner itself (the fork
// cases above must not inherit it, or their children would already have
// a handler before RunCrashChild installs one).
TEST(CrashHandlerTest, InstallIsIdempotentInProcess) {
  const Status first = InstallCrashHandler();
  if (!first.ok()) {
    GTEST_SKIP() << "crash forensics unavailable: " << first.ToString();
  }
  EXPECT_TRUE(InstallCrashHandler().ok());
}

}  // namespace
}  // namespace chameleon::obs
