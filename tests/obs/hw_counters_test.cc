// Hardware-counter telemetry: the multiplexing-correction math must be
// exact (it is pure, so no PMU is needed to pin it), the toplev-lite
// classifier must honor its documented thresholds, and the emulated
// backend must drive the full attribution pipeline end to end — span
// records gain ipc/cache_miss_rate fields, per-path `hw_counters`
// records reach the sink, and a signal-ended run still flushes them
// through FinalizeRun. The perf-backend multiplexing case oversubscribes
// the PMU with filler groups and checks corrected counts against an
// un-multiplexed run; it skips (not fails) on PMU-less or paranoid
// machines, where the emulated cases carry the coverage.

#include "chameleon/obs/hw_counters.h"

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>

#include <cstring>
#endif

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

/// Scoped CHAMELEON_HW_COUNTERS override; restores the prior value so
/// test order cannot leak modes across cases.
class ScopedHwEnv {
 public:
  explicit ScopedHwEnv(const char* mode) {
    const char* prev = std::getenv("CHAMELEON_HW_COUNTERS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (mode == nullptr) {
      unsetenv("CHAMELEON_HW_COUNTERS");
    } else {
      setenv("CHAMELEON_HW_COUNTERS", mode, 1);
    }
  }
  ~ScopedHwEnv() {
    if (had_prev_) {
      setenv("CHAMELEON_HW_COUNTERS", prev_.c_str(), 1);
    } else {
      unsetenv("CHAMELEON_HW_COUNTERS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

/// CPU-bound busy work: enough arithmetic that the emulated backend
/// (thread CPU time) observes a nonzero interval.
std::uint64_t Spin(std::size_t iters) {
  volatile std::uint64_t acc = 1;
  for (std::size_t i = 0; i < iters; ++i) acc = acc * 2654435761u + i;
  return acc;
}

// ---------------------------------------------------------------------
// Pure math: the multiplexing correction.

TEST(ScaleMultiplexedTest, FullDutyCycleReturnsRawDelta) {
  EXPECT_EQ(ScaleMultiplexed(1000, 500, 500), 1000u);
  // running > enabled (clock skew between the two reads) is clamped to
  // the raw value, never scaled below it.
  EXPECT_EQ(ScaleMultiplexed(1000, 500, 600), 1000u);
}

TEST(ScaleMultiplexedTest, ZeroRunningMeansTheGroupNeverCounted) {
  EXPECT_EQ(ScaleMultiplexed(12345, 1000, 0), 0u);
}

TEST(ScaleMultiplexedTest, HalfDutyCycleDoublesTheDelta) {
  EXPECT_EQ(ScaleMultiplexed(1000, 1000, 500), 2000u);
  // 25% duty cycle quadruples.
  EXPECT_EQ(ScaleMultiplexed(300, 2000, 500), 1200u);
}

TEST(ScaleMultiplexedTest, RoundsToNearest) {
  // 10 * 3/2 = 15 exactly; 5 * 3/2 = 7.5 rounds to 8.
  EXPECT_EQ(ScaleMultiplexed(10, 3, 2), 15u);
  EXPECT_EQ(ScaleMultiplexed(5, 3, 2), 8u);
  EXPECT_EQ(ScaleMultiplexed(0, 3, 2), 0u);
}

TEST(ComputeHwDeltaTest, SubtractsAndScalesEveryCounter) {
  HwCounterSample open;
  open.valid = true;
  open.time_enabled_ns = 1000;
  open.time_running_ns = 1000;
  open.cycles = 100;
  open.instructions = 50;
  open.cache_references = 10;
  open.cache_misses = 4;
  open.has_cache = true;

  HwCounterSample close = open;
  // Interval: enabled 1000, running 500 → every delta doubles.
  close.time_enabled_ns = 2000;
  close.time_running_ns = 1500;
  close.cycles = 600;
  close.instructions = 300;
  close.cache_references = 110;
  close.cache_misses = 24;

  const HwCounterDelta delta = ComputeHwDelta(open, close);
  ASSERT_TRUE(delta.valid);
  EXPECT_DOUBLE_EQ(delta.scale, 2.0);
  EXPECT_EQ(delta.cycles, 1000u);
  EXPECT_EQ(delta.instructions, 500u);
  EXPECT_EQ(delta.cache_references, 200u);
  EXPECT_EQ(delta.cache_misses, 40u);
  EXPECT_TRUE(delta.has_cache);
  EXPECT_DOUBLE_EQ(delta.Ipc(), 0.5);
  EXPECT_DOUBLE_EQ(delta.CacheMissRate(), 0.2);
}

TEST(ComputeHwDeltaTest, InvalidSampleYieldsInvalidDelta) {
  HwCounterSample open;
  HwCounterSample close;
  close.valid = true;
  EXPECT_FALSE(ComputeHwDelta(open, close).valid);
  EXPECT_FALSE(ComputeHwDelta(close, open).valid);
}

// ---------------------------------------------------------------------
// The toplev-lite classifier thresholds.

HwPathAggregate MakeAgg(std::uint64_t cycles, std::uint64_t instructions,
                        std::uint64_t refs, std::uint64_t misses,
                        std::uint64_t branch_misses,
                        std::uint64_t stalled) {
  HwPathAggregate agg;
  agg.path = "test";
  agg.spans = 1;
  agg.cycles = cycles;
  agg.instructions = instructions;
  agg.cache_references = refs;
  agg.cache_misses = misses;
  agg.branch_misses = branch_misses;
  agg.stalled_backend = stalled;
  return agg;
}

TEST(ClassifyHwBottleneckTest, HonorsDocumentedThresholds) {
  // No data → unknown.
  EXPECT_EQ(ClassifyHwBottleneck(MakeAgg(0, 0, 0, 0, 0, 0)),
            HwBottleneck::kUnknown);
  // cache_miss_rate 0.5, ipc 0.5 → backend-memory-bound.
  EXPECT_EQ(ClassifyHwBottleneck(MakeAgg(1000, 500, 100, 50, 0, 0)),
            HwBottleneck::kBackendMemoryBound);
  // stalled/cycles 0.6, ipc 0.5, clean caches → backend-memory-bound.
  EXPECT_EQ(ClassifyHwBottleneck(MakeAgg(1000, 500, 100, 1, 0, 600)),
            HwBottleneck::kBackendMemoryBound);
  // branch_miss_rate 0.04, ipc 0.5, clean caches → frontend-bound.
  EXPECT_EQ(ClassifyHwBottleneck(MakeAgg(1000, 500, 100, 1, 20, 0)),
            HwBottleneck::kFrontendBound);
  // ipc 2.0 → compute-bound regardless of miss rates.
  EXPECT_EQ(ClassifyHwBottleneck(MakeAgg(1000, 2000, 100, 50, 100, 0)),
            HwBottleneck::kComputeBound);
  // ipc 1.2, low miss rates → balanced.
  EXPECT_EQ(ClassifyHwBottleneck(MakeAgg(1000, 1200, 100, 1, 1, 0)),
            HwBottleneck::kBalanced);
}

TEST(ClassifyHwBottleneckTest, NamesAreStable) {
  EXPECT_STREQ(HwBottleneckName(HwBottleneck::kUnknown), "unknown");
  EXPECT_STREQ(HwBottleneckName(HwBottleneck::kFrontendBound),
               "frontend-bound");
  EXPECT_STREQ(HwBottleneckName(HwBottleneck::kBackendMemoryBound),
               "backend-memory-bound");
  EXPECT_STREQ(HwBottleneckName(HwBottleneck::kComputeBound),
               "compute-bound");
  EXPECT_STREQ(HwBottleneckName(HwBottleneck::kBalanced), "balanced");
}

TEST(FormatHwCounterRecordTest, SchemaCarriesEveryField) {
  const HwPathAggregate agg = MakeAgg(1000, 1200, 100, 1, 1, 0);
  const std::string line = FormatHwCounterRecord(agg, HwBackend::kEmulated);
  EXPECT_EQ(JsonlStringField(line, "type"), "hw_counters");
  EXPECT_EQ(JsonlStringField(line, "path"), "test");
  EXPECT_EQ(JsonlStringField(line, "backend"), "emulated");
  EXPECT_EQ(JsonlStringField(line, "class"), "balanced");
  EXPECT_EQ(JsonlNumberField(line, "cycles"), 1000.0);
  EXPECT_EQ(JsonlNumberField(line, "instructions"), 1200.0);
  EXPECT_EQ(JsonlNumberField(line, "spans"), 1.0);
  EXPECT_TRUE(JsonlNumberField(line, "ipc").has_value());
  EXPECT_TRUE(JsonlNumberField(line, "cache_miss_rate").has_value());
  EXPECT_TRUE(JsonlNumberField(line, "branch_miss_rate").has_value());
  EXPECT_TRUE(JsonlNumberField(line, "task_clock_ns").has_value());
}

// ---------------------------------------------------------------------
// Engine lifecycle with the emulated backend (deterministic, PMU-free).

TEST(HwCountersEngineTest, EmulatedBackendSamplesAndAggregates) {
  ScopedHwEnv env("emulate");
  ASSERT_TRUE(StartHwCounters());
  EXPECT_TRUE(HwCountersActive());
  EXPECT_EQ(HwCountersBackend(), HwBackend::kEmulated);
  EXPECT_EQ(HwCountersUnavailableReason(), "");

  HwCounterSample open;
  ASSERT_TRUE(SampleHwCounters(&open));
  Spin(2'000'000);
  HwCounterSample close;
  ASSERT_TRUE(SampleHwCounters(&close));

  const HwCounterDelta delta = ComputeHwDelta(open, close);
  ASSERT_TRUE(delta.valid);
  EXPECT_GT(delta.cycles, 0u);
  EXPECT_GT(delta.instructions, 0u);
  // The emulated model is pinned: IPC 1.25, cache miss rate 1/8 — the
  // classifier must land on "balanced" so CI output is stable.
  EXPECT_NEAR(delta.Ipc(), 1.25, 0.01);
  EXPECT_NEAR(delta.CacheMissRate(), 0.125, 0.01);
  // Emulation never multiplexes.
  EXPECT_DOUBLE_EQ(delta.scale, 1.0);

  const std::uint64_t attributed_before = HwSpansAttributed();
  AccumulateHwPath("unit/spin", delta);
  EXPECT_EQ(HwSpansAttributed(), attributed_before + 1);
  const std::vector<HwPathAggregate> aggs = HwPathAggregates();
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].path, "unit/spin");
  EXPECT_EQ(aggs[0].spans, 1u);
  EXPECT_EQ(aggs[0].cycles, delta.cycles);
  EXPECT_EQ(ClassifyHwBottleneck(aggs[0]), HwBottleneck::kBalanced);

  StopHwCounters();
  EXPECT_FALSE(HwCountersActive());
  HwCounterSample dead;
  EXPECT_FALSE(SampleHwCounters(&dead));
  ResetHwPathAggregates();
  EXPECT_TRUE(HwPathAggregates().empty());
}

TEST(HwCountersEngineTest, OffOverrideDisablesWithReason) {
  ScopedHwEnv env("off");
  EXPECT_FALSE(StartHwCounters());
  EXPECT_FALSE(HwCountersActive());
  EXPECT_EQ(HwCountersBackend(), HwBackend::kNone);
  EXPECT_NE(HwCountersUnavailableReason(), "");
  StopHwCounters();
}

// ---------------------------------------------------------------------
// End-to-end through InitObservability / spans / shutdown. Each case
// forks: the obs lifecycle is process-global and other tests share it.

/// Forks; the child configures obs against `path` with the given hw env
/// mode, runs spans with real CPU work, then runs `terminate` (which
/// must not return). Returns the child's wait status.
template <typename Fn>
int RunChild(const std::string& path, const char* hw_mode, Fn terminate) {
  std::fflush(nullptr);  // do not double-write inherited stdio buffers
  const pid_t pid = fork();
  if (pid == 0) {
    if (hw_mode == nullptr) {
      unsetenv("CHAMELEON_HW_COUNTERS");
    } else {
      setenv("CHAMELEON_HW_COUNTERS", hw_mode, 1);
    }
    ObsOptions options;
    options.metrics_out = path;
    options.read_env = false;
    if (!InitObservability(options).ok()) _exit(97);
    for (int i = 0; i < 3; ++i) {
      CHOBS_SPAN(span, "child/hw_work");
      Spin(2'000'000);
    }
    terminate();
    _exit(96);  // terminate() must not return
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::size_t CountType(const std::vector<std::string>& lines,
                      const std::string& type) {
  std::size_t n = 0;
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") == type) ++n;
  }
  return n;
}

TEST(HwCountersEndToEndTest, EmulatedRunEmitsSpanFieldsAndPathRecords) {
  const std::string path = testing::TempDir() + "/hw_emulated_run.jsonl";
  std::remove(path.c_str());

  const int status = RunChild(path, "emulate", [] {
    ShutdownObservability();
    _exit(0);
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(CountType(lines, "hw_counters_unavailable"), 0u);
  ASSERT_GE(CountType(lines, "hw_counters"), 1u);

  // The span records carry inline counters with nonzero derived rates.
  std::size_t spans_with_hw = 0;
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") != "span") continue;
    if (JsonlStringField(line, "path") != "child/hw_work") continue;
    const auto ipc = JsonlNumberField(line, "ipc");
    const auto cmr = JsonlNumberField(line, "cache_miss_rate");
    ASSERT_TRUE(ipc.has_value()) << line;
    ASSERT_TRUE(cmr.has_value()) << line;
    EXPECT_GT(*ipc, 0.0);
    EXPECT_GT(*cmr, 0.0);
    EXPECT_GT(JsonlNumberField(line, "cycles").value_or(0.0), 0.0);
    ++spans_with_hw;
  }
  EXPECT_EQ(spans_with_hw, 3u);

  // The path record aggregates all three spans and classifies them.
  bool found_path_record = false;
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") != "hw_counters") continue;
    if (JsonlStringField(line, "path") != "child/hw_work") continue;
    found_path_record = true;
    EXPECT_EQ(JsonlNumberField(line, "spans"), 3.0);
    EXPECT_EQ(JsonlStringField(line, "backend"), "emulated");
    EXPECT_EQ(JsonlStringField(line, "class"), "balanced");
    EXPECT_GT(JsonlNumberField(line, "cycles").value_or(0.0), 0.0);
  }
  EXPECT_TRUE(found_path_record);
}

TEST(HwCountersEndToEndTest, OffRunEmitsExactlyOneUnavailableRecord) {
  const std::string path = testing::TempDir() + "/hw_off_run.jsonl";
  std::remove(path.c_str());

  const int status = RunChild(path, "off", [] {
    ShutdownObservability();
    _exit(0);
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(CountType(lines, "hw_counters_unavailable"), 1u);
  EXPECT_EQ(CountType(lines, "hw_counters"), 0u);
  // The run itself stays fully functional: spans and summary flush, and
  // span records simply omit the counter fields.
  EXPECT_EQ(CountType(lines, "run_summary"), 1u);
  for (const std::string& line : lines) {
    if (JsonlStringField(line, "type") != "span") continue;
    EXPECT_FALSE(JsonlNumberField(line, "ipc").has_value()) << line;
  }
}

TEST(HwCountersEndToEndTest, SignalEndedRunStillFlushesHwRecords) {
  const std::string path = testing::TempDir() + "/hw_sigterm_run.jsonl";
  std::remove(path.c_str());

  const int status = RunChild(path, "emulate", [] { raise(SIGTERM); });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  // FinalizeRunForSignal emits the hw records before stopping the
  // engine, so the aggregates survive an abnormal exit.
  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_GE(CountType(lines, "hw_counters"), 1u);
  EXPECT_EQ(CountType(lines, "run_summary"), 1u);
}

// ---------------------------------------------------------------------
// Perf-backend multiplexing: only meaningful on a machine with a real
// PMU and permissive perf_event_paranoid; skips elsewhere.

#ifdef __linux__
/// Opens `n` filler cycles-counting groups on this thread to
/// oversubscribe the PMU so the kernel must rotate groups. Returns the
/// fds (empty on failure).
std::vector<int> OpenFillerGroups(int n) {
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_CPU_CYCLES;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = syscall(__NR_perf_event_open, &attr, 0, -1, -1,
                            PERF_FLAG_FD_CLOEXEC);
    if (fd < 0) break;
    fds.push_back(static_cast<int>(fd));
  }
  return fds;
}
#endif  // __linux__

TEST(HwCountersPerfTest, MultiplexedCountsScaleWithinTolerance) {
#ifndef __linux__
  GTEST_SKIP() << "perf_event_open is linux-only";
#else
  ScopedHwEnv env("perf");
  if (!StartHwCounters()) {
    GTEST_SKIP() << "perf backend unavailable: "
                 << HwCountersUnavailableReason();
  }
  ASSERT_EQ(HwCountersBackend(), HwBackend::kPerf);

  constexpr std::size_t kWork = 20'000'000;

  // Un-multiplexed reference run.
  HwCounterSample open;
  ASSERT_TRUE(SampleHwCounters(&open));
  Spin(kWork);
  HwCounterSample close;
  ASSERT_TRUE(SampleHwCounters(&close));
  const HwCounterDelta reference = ComputeHwDelta(open, close);
  ASSERT_TRUE(reference.valid);
  ASSERT_GT(reference.instructions, 0u);

  // Oversubscribe the PMU (dozens of groups exceed any counter bank)
  // and rerun the same workload.
  std::vector<int> fillers = OpenFillerGroups(64);
  ASSERT_TRUE(SampleHwCounters(&open));
  Spin(kWork);
  ASSERT_TRUE(SampleHwCounters(&close));
  const HwCounterDelta multiplexed = ComputeHwDelta(open, close);
  for (const int fd : fillers) ::close(fd);
  StopHwCounters();

  ASSERT_TRUE(multiplexed.valid);
  if (multiplexed.scale <= 1.0) {
    GTEST_SKIP() << "kernel never rotated the group (wide PMU?); "
                    "correction untestable here";
  }
  // The group ran for only part of the interval...
  EXPECT_GT(close.time_enabled_ns - open.time_enabled_ns,
            close.time_running_ns - open.time_running_ns);
  // ...yet the corrected instruction count lands near the
  // un-multiplexed reference. Generous tolerance: extrapolation is an
  // estimate and the fillers themselves perturb the machine.
  const double ratio = static_cast<double>(multiplexed.instructions) /
                       static_cast<double>(reference.instructions);
  EXPECT_GT(ratio, 0.5) << "corrected count lost too much";
  EXPECT_LT(ratio, 2.0) << "corrected count overshot";
#endif  // __linux__
}

}  // namespace
}  // namespace chameleon::obs
