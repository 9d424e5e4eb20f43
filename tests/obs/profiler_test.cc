// Sampling-profiler tests: span-path interning and TLS attribution,
// whole-capture lifecycle (start/stop, folded file, "profile" record,
// ring-overflow accounting), signal-safety under concurrent span churn
// (meaningful under TSan), and SIGINT-during-capture flushing (forked
// child).
//
// Capture tests burn real CPU inside a span — the per-thread timers fire
// on CLOCK_THREAD_CPUTIME_ID, so sleeping would collect nothing.

#include "chameleon/obs/profiler.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {
namespace {

/// Burns roughly `cpu_ms` of CPU time on the calling thread.
void BurnCpu(double cpu_ms) {
  const std::uint64_t start = MonotonicNanos();
  volatile double sink_value = 1.0;
  while (static_cast<double>(MonotonicNanos() - start) < cpu_ms * 1e6) {
    for (int i = 0; i < 1000; ++i) sink_value = sink_value * 1.000001 + 0.1;
  }
  static_cast<void>(sink_value);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Starts the profiler, skipping the test when the platform cannot
/// profile (non-Linux) rather than failing it.
#define START_OR_SKIP(options)                                       \
  do {                                                               \
    Status start_status = StartGlobalProfiler(options);              \
    if (start_status.code() == StatusCode::kUnimplemented) {         \
      GTEST_SKIP() << start_status.ToString();                       \
    }                                                                \
    ASSERT_TRUE(start_status.ok()) << start_status.ToString();       \
  } while (0)

TEST(SpanPathInternTest, SameidForSamePathRoundTrips) {
  const std::uint32_t a = InternSpanPath("profiler_test/alpha");
  const std::uint32_t b = InternSpanPath("profiler_test/beta");
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(InternSpanPath("profiler_test/alpha"), a);
  EXPECT_EQ(SpanPathForId(a), "profiler_test/alpha");
  EXPECT_EQ(SpanPathForId(b), "profiler_test/beta");
  EXPECT_EQ(SpanPathForId(0), "");
  EXPECT_EQ(SpanPathForId(0xffffffffu), "");
}

TEST(SpanPathInternTest, TlsWordTracksInnermostSpan) {
  MemorySink sink;
  Tracer tracer(&sink);
  EXPECT_EQ(CurrentSpanPathId(), 0u);
  {
    TraceSpan outer("tls_outer", &tracer);
    const std::uint32_t outer_id = CurrentSpanPathId();
    EXPECT_EQ(SpanPathForId(outer_id), "tls_outer");
    {
      TraceSpan inner("tls_inner", &tracer);
      EXPECT_EQ(SpanPathForId(CurrentSpanPathId()), "tls_outer/tls_inner");
    }
    EXPECT_EQ(CurrentSpanPathId(), outer_id);
  }
  EXPECT_EQ(CurrentSpanPathId(), 0u);
}

TEST(FoldedTextTest, RendersFramesAndCounts) {
  ProfileReport report;
  report.stacks.push_back(
      ProfileStack{{"reliability", "sample_worlds", "bfs"}, 42});
  report.stacks.push_back(ProfileStack{{"(no_span)"}, 7});
  EXPECT_EQ(FoldedText(report),
            "reliability;sample_worlds;bfs 42\n(no_span) 7\n");
}

TEST(ProfilerTest, StopWithoutStartFails) {
  const Result<ProfileReport> report = StopGlobalProfiler();
  EXPECT_FALSE(report.ok());
}

TEST(ProfilerTest, RejectsBadHz) {
  ProfilerOptions options;
  options.hz = 0;
  EXPECT_EQ(StartGlobalProfiler(options).code(),
            StatusCode::kInvalidArgument);
  options.hz = 100000;
  EXPECT_EQ(StartGlobalProfiler(options).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfilerTest, CaptureAttributesSamplesToActiveSpan) {
  MemorySink sink;
  Tracer tracer(&sink);
  ProfilerOptions options;
  options.hz = 997;  // fast sampling keeps the burn loop short
  options.emit_record = false;
  START_OR_SKIP(options);
  EXPECT_TRUE(ProfilerRunning());

  // A second start must fail while the first capture is live.
  EXPECT_FALSE(StartGlobalProfiler(options).ok());

  {
    TraceSpan span("profiler_capture_span", &tracer);
    BurnCpu(300.0);
  }

  const Result<ProfileReport> report = StopGlobalProfiler();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(ProfilerRunning());
  EXPECT_GT(report->samples, 0u);
  EXPECT_EQ(report->hz, 997);
  EXPECT_GT(report->duration_ms, 0.0);

  std::uint64_t span_samples = 0;
  std::uint64_t total = 0;
  for (const auto& [path, samples] : report->span_samples) {
    total += samples;
    if (path.find("profiler_capture_span") != std::string::npos) {
      span_samples += samples;
    }
  }
  EXPECT_EQ(total, report->samples);
  // Nearly all CPU burned inside the span; >50% is the acceptance bar.
  EXPECT_GT(span_samples * 2, report->samples);

  // The folded rendering carries the span as a root frame.
  EXPECT_NE(FoldedText(*report).find("profiler_capture_span"),
            std::string::npos);
}

TEST(ProfilerTest, WritesFoldedFileOnStop) {
  MemorySink sink;
  Tracer tracer(&sink);
  const std::string path = testing::TempDir() + "/profiler_test.folded";
  std::remove(path.c_str());

  ProfilerOptions options;
  options.hz = 997;
  options.folded_out = path;
  options.emit_record = false;
  START_OR_SKIP(options);
  {
    TraceSpan span("folded_file_span", &tracer);
    BurnCpu(200.0);
  }
  const Result<ProfileReport> report = StopGlobalProfiler();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_FALSE(lines.empty()) << "empty folded file " << path;
  bool saw_span = false;
  for (const std::string& line : lines) {
    // "frame;frame;... count": at least one frame and a trailing count.
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    if (line.find("folded_file_span") != std::string::npos) saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

TEST(ProfilerTest, FullRingAccountsDroppedSamples) {
  MemorySink sink;
  Tracer tracer(&sink);

  // CPU-time timers fire at scheduler-tick granularity, so a requested
  // 10 kHz often delivers a few hundred Hz. Probe the effective rate
  // first, then park the drainer and burn long enough to overfill the
  // ring with ~50% headroom.
  ProfilerOptions probe;
  probe.hz = 10000;
  probe.emit_record = false;
  probe.drain_interval_millis = 5;
  START_OR_SKIP(probe);
  {
    TraceSpan span("overflow_probe", &tracer);
    BurnCpu(500.0);
  }
  const Result<ProfileReport> probe_report = StopGlobalProfiler();
  ASSERT_TRUE(probe_report.ok()) << probe_report.status().ToString();
  const double rate =
      static_cast<double>(probe_report->samples) / 0.5;  // samples per second
  const double burn_ms = 1.5 * kProfilerRingCapacity / rate * 1000.0;
  if (rate < 50.0 || burn_ms > 15000.0) {
    GTEST_SKIP() << "delivery rate " << rate
                 << " Hz too slow to overflow the ring in a test budget";
  }

  ProfilerOptions options;
  options.hz = 10000;
  options.drain_interval_millis = 60000;  // drainer parked: ring must fill
  options.emit_record = false;
  ASSERT_TRUE(StartGlobalProfiler(options).ok());
  {
    TraceSpan span("overflow_span", &tracer);
    BurnCpu(burn_ms);
  }
  const Result<ProfileReport> report = StopGlobalProfiler();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->samples, 0u);
  EXPECT_GT(report->dropped, 0u)
      << "burning " << burn_ms << " ms at " << rate
      << " Hz must overflow the " << kProfilerRingCapacity << "-entry ring";
}

// Start/stop churn against concurrent span-opening worker threads. The
// interesting assertions are the ones TSan makes: no data races between
// the handler, the drainer, registration, and span open/close.
TEST(ProfilerTest, ConcurrentSpansAndStartStopAreRaceFree) {
  MemorySink sink;
  Tracer tracer(&sink);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&tracer, &stop, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        TraceSpan span("worker_span_" + std::to_string(t), &tracer);
        BurnCpu(2.0);
      }
    });
  }

  bool skipped = false;
  for (int round = 0; round < 3; ++round) {
    ProfilerOptions options;
    options.hz = 997;
    options.emit_record = false;
    options.drain_interval_millis = 5;
    Status start_status = StartGlobalProfiler(options);
    if (!start_status.ok()) {
      skipped = true;
      break;
    }
    BurnCpu(50.0);
    const Result<ProfileReport> report = StopGlobalProfiler();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();
  if (skipped) GTEST_SKIP() << "profiler unavailable on this platform/build";
}

/// SIGINT mid-capture must still flush a complete profile.folded and the
/// "profile" record: the obs termination hooks stop the profiler before
/// the final run_summary. Forked child so the re-raised signal cannot
/// take the test runner down.
TEST(ProfilerShutdownTest, SigintDuringCaptureFlushesFoldedProfile) {
  const std::string jsonl = testing::TempDir() + "/profiler_sigint.jsonl";
  const std::string folded = testing::TempDir() + "/profiler_sigint.folded";
  std::remove(jsonl.c_str());
  std::remove(folded.c_str());

  std::fflush(nullptr);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ObsOptions obs_options;
    obs_options.metrics_out = jsonl;
    obs_options.read_env = false;
    if (!InitObservability(obs_options).ok()) _exit(97);
    ProfilerOptions profiler_options;
    profiler_options.hz = 997;
    profiler_options.folded_out = folded;
    if (!StartGlobalProfiler(profiler_options).ok()) _exit(96);
    {
      CHOBS_SPAN(span, "sigint_burn");
      BurnCpu(300.0);
      raise(SIGINT);
    }
    _exit(98);  // the re-raised SIGINT must have killed us
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 96) {
    GTEST_SKIP() << "profiler unavailable on this platform/build";
  }
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGINT);

  const std::vector<std::string> folded_lines = ReadLines(folded);
  ASSERT_FALSE(folded_lines.empty()) << "SIGINT dropped the folded profile";
  bool saw_burn_span = false;
  for (const std::string& line : folded_lines) {
    if (line.find("sigint_burn") != std::string::npos) saw_burn_span = true;
  }
  EXPECT_TRUE(saw_burn_span);

  bool saw_profile_record = false;
  bool saw_summary_after_profile = false;
  for (const std::string& line : ReadLines(jsonl)) {
    const auto type = JsonlStringField(line, "type");
    if (type == "profile") {
      saw_profile_record = true;
      EXPECT_GT(JsonlNumberField(line, "samples").value_or(0.0), 0.0);
    } else if (type == "run_summary" && saw_profile_record) {
      saw_summary_after_profile = true;
    }
  }
  EXPECT_TRUE(saw_profile_record);
  EXPECT_TRUE(saw_summary_after_profile)
      << "profile record must precede the final run_summary";
}

}  // namespace
}  // namespace chameleon::obs
