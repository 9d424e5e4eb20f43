#include "chameleon/obs/run_context.h"

#include <climits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/util/flags.h"

namespace chameleon::obs {
namespace {

TEST(BuildInfoTest, ConfigureTimeFieldsArePopulated) {
  const BuildInfo& build = GetBuildInfo();
  EXPECT_FALSE(build.version.empty());
  EXPECT_FALSE(build.compiler_id.empty());
  EXPECT_FALSE(build.compiler_version.empty());
  // Git fields fall back to "unknown" outside a checkout, never "".
  EXPECT_FALSE(build.git_sha.empty());
  EXPECT_FALSE(build.git_describe.empty());
}

TEST(HostInfoTest, DescribesTheRunningProcess) {
  const HostInfo host = GetHostInfo();
  EXPECT_FALSE(host.hostname.empty());
  EXPECT_GT(host.pid, 0);
  EXPECT_GT(host.num_cpus, 0);
  EXPECT_GT(host.page_size_bytes, 0);
}

TEST(ProcessUsageTest, ReportsNonZeroPeakRss) {
  const ProcessUsage usage = GetProcessUsage();
  EXPECT_GT(usage.max_rss_kb, 0u);
  EXPECT_GE(usage.user_cpu_ms, 0.0);
}

TEST(VersionStringTest, NamesToolAndCompiler) {
  const std::string text = VersionString("some_tool");
  EXPECT_NE(text.find("some_tool"), std::string::npos);
  EXPECT_NE(text.find(GetBuildInfo().compiler_id), std::string::npos);
  EXPECT_NE(text.find(GetBuildInfo().git_sha), std::string::npos);
}

std::optional<int> ParseArgs(FlagSet& flags,
                             std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseToolFlags(flags, "some_tool", static_cast<int>(argv.size()),
                        argv.data());
}

TEST(ParseToolFlagsTest, ReturnsTheExitCodeOrRuns) {
  FlagSet run("t");
  EXPECT_EQ(ParseArgs(run, {"some_tool", "pos"}), std::nullopt);
  EXPECT_EQ(run.positional().size(), 1u);
  FlagSet help("t");
  EXPECT_EQ(ParseArgs(help, {"some_tool", "--help"}), 0);
  FlagSet version("t");
  EXPECT_EQ(ParseArgs(version, {"some_tool", "--version"}), 0);
  FlagSet typo("t");
  EXPECT_EQ(ParseArgs(typo, {"some_tool", "--no_such_flag"}), 2);
}

TEST(ObsOptionsFromFlagsTest, StartsOnlyTheEnginesTheFlagsName) {
  FlagSet quiet("t");
  AddObsFlags(quiet);
  ASSERT_EQ(ParseArgs(quiet, {"some_tool"}), std::nullopt);
  const ObsOptions none = ObsOptionsFromFlags(quiet);
  EXPECT_TRUE(none.metrics_out.empty());
  EXPECT_FALSE(none.profiler);

  FlagSet all("t");
  AddObsFlags(all);
  ASSERT_EQ(ParseArgs(all, {"some_tool", "--metrics_out=m.jsonl",
                            "--profile=p.folded", "--profile_hz=199"}),
            std::nullopt);
  const ObsOptions options = ObsOptionsFromFlags(all);
  EXPECT_EQ(options.metrics_out, "m.jsonl");
  ASSERT_TRUE(options.profiler);
  EXPECT_EQ(options.profiler->hz, 199);
  EXPECT_EQ(options.profiler->folded_out, "p.folded");

  // The stall watchdog, the --hw_counters switch and the heap profiler
  // are gone: their flags are usage errors like any unknown flag.
  for (const char* removed :
       {"--watchdog_stall_seconds=30", "--watchdog_abort_after=5",
        "--nohw_counters", "--heap_profile=h.folded",
        "--heap_sample_bytes=4096"}) {
    FlagSet flags("t");
    AddObsFlags(flags);
    EXPECT_EQ(ParseArgs(flags, {"some_tool", removed}), 2) << removed;
  }
}

TEST(ObsOptionsFromFlagsTest, OutOfRangeRatesStayInvalid) {
  // 2^32 + 99 must not wrap to a valid 99 Hz.
  FlagSet flags("t");
  AddObsFlags(flags);
  ASSERT_EQ(ParseArgs(flags, {"some_tool", "--profile=p.folded",
                              "--profile_hz=4294967395"}),
            std::nullopt);
  const ObsOptions options = ObsOptionsFromFlags(flags);
  EXPECT_EQ(options.profiler->hz, INT_MAX);
}

TEST(RunManifestTest, CapturesArgvSeedsAndParams) {
  const char* argv[] = {"tool_binary", "--worlds=100", "--seed=7"};
  RunManifest manifest = RunManifest::Capture("my_tool", 3, argv);
  manifest.AddSeed("rng", 7);
  manifest.AddSeed("shuffle", 99);
  manifest.AddParam("dataset", "petster");

  EXPECT_EQ(manifest.tool(), "my_tool");
  ASSERT_EQ(manifest.argv().size(), 3u);
  EXPECT_EQ(manifest.argv()[1], "--worlds=100");

  const std::string line = manifest.ToJsonLine();
  EXPECT_EQ(*JsonlStringField(line, "type"), "manifest");
  EXPECT_EQ(*JsonlStringField(line, "tool"), "my_tool");
  EXPECT_TRUE(JsonlNumberField(line, "t_ms").has_value());

  // Build + host provenance are embedded.
  EXPECT_EQ(*JsonlStringField(line, "git_sha"), GetBuildInfo().git_sha);
  EXPECT_EQ(*JsonlStringField(line, "hostname"), GetHostInfo().hostname);

  // Seeds and params survive as flat JSON objects.
  EXPECT_NE(line.find("\"seeds\":{\"rng\":7,\"shuffle\":99}"),
            std::string::npos);
  EXPECT_NE(line.find("\"dataset\":\"petster\""), std::string::npos);
  EXPECT_NE(line.find("--worlds=100"), std::string::npos);
}

TEST(RunManifestTest, EscapesSpecialCharacters) {
  const char* argv[] = {"tool", "--path=a\"b\\c"};
  RunManifest manifest = RunManifest::Capture("t", 2, argv);
  manifest.AddParam("note", "line1\nline2");
  const std::string line = manifest.ToJsonLine();
  // The raw quote/backslash/newline never appear unescaped.
  EXPECT_EQ(line.find("a\"b\\c"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("a\\\"b\\\\c"), std::string::npos);
}

}  // namespace
}  // namespace chameleon::obs
