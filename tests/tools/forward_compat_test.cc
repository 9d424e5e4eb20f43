// Forward-compatibility contract of the JSONL readers (ISSUE 5): a
// metrics stream written by a newer library — containing record types
// this build has never heard of — must still render through
// chameleon_obs_dump and chameleon_watch. Unknown types pass through
// with one debug note per type, count toward the record total, and are
// never a per-record warning or an error. Drives the real tool binaries
// (paths injected by CMake) over crafted streams.

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
  const std::string stderr_path = testing::TempDir() + "/fc_stderr.txt";
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

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string WriteStream(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << body;
  return path;
}

/// A stream mixing known records, a privacy_check, and three records of
/// a type from "the future".
std::string MixedStream() {
  return
      "{\"type\":\"manifest\",\"tool\":\"future_tool\","
      "\"git_describe\":\"v9\"}\n"
      "{\"type\":\"privacy_check\",\"t_ms\":1,\"k\":8,\"eps\":0.05,"
      "\"eps_hat\":0.1111,\"obfuscated\":false,\"vertices\":9,"
      "\"not_obfuscated\":1,\"min_entropy_bits\":0,"
      "\"mean_entropy_bits\":2.67,\"distinct_omegas\":2,"
      "\"adversary\":\"expected_degree\",\"threads\":1,\"wall_ms\":0.1}\n"
      "{\"type\":\"relevance_progress\",\"t_ms\":1,"
      "\"label\":\"anonymize/relevance\",\"worlds\":200,"
      "\"total_worlds\":200,\"mean_err\":3.25,\"max_err\":20,"
      "\"mean_world_mass\":11.5,\"ci_halfwidth\":0.4,\"rel_err\":0.123,"
      "\"final\":true,\"stopped_early\":false}\n"
      "{\"type\":\"anonymize_attempt\",\"t_ms\":1,\"method\":\"RSME\","
      "\"phase\":\"expand\",\"level\":0,\"attempt\":0,\"sigma\":0.05,"
      "\"success\":false,\"eps_hat\":0.25,\"not_obfuscated\":2,"
      "\"vertices\":9,\"perturbed_edges\":4,\"excluded\":1,"
      "\"wall_ms\":0.2}\n"
      "{\"type\":\"sigma_search\",\"t_ms\":2,\"method\":\"RSME\","
      "\"phase\":\"final\",\"level\":3,\"sigma\":0.2,\"lo\":0.1,"
      "\"hi\":0.2,\"success\":true,\"eps_hat\":0.04,\"attempts\":5,"
      "\"best_sigma\":0.1875}\n"
      "{\"type\":\"quantum_flux\",\"t_ms\":2,\"q\":1}\n"
      "{\"type\":\"quantum_flux\",\"t_ms\":3,\"q\":2}\n"
      "{\"type\":\"quantum_flux\",\"t_ms\":4,\"q\":3}\n"
      "{\"type\":\"hw_counters\",\"t_ms\":4,\"path\":\"privacy/obf_check\","
      "\"backend\":\"emulated\",\"spans\":2,\"cycles\":3000000,"
      "\"instructions\":3750000,\"cache_refs\":234375,"
      "\"cache_misses\":29296,\"branch_misses\":14648,"
      "\"stalled_backend\":750000,\"task_clock_ns\":1000000,"
      "\"ipc\":1.25,\"cache_miss_rate\":0.125,"
      "\"branch_miss_rate\":0.003906,\"class\":\"balanced\"}\n"
      "{\"type\":\"run_summary\",\"t_ms\":5,\"wall_ms\":12.5}\n";
}

TEST(ObsDumpForwardCompatTest, UnknownTypesPassThroughWithOneNote) {
  const std::string path = WriteStream("fc_mixed.jsonl", MixedStream());
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  // One note for three records of the unknown type — never per record.
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown type"), std::string::npos);
  // The privacy_check record renders.
  EXPECT_NE(result.stdout_text.find("privacy checks:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("VIOLATED"), std::string::npos);
  // The anonymization records are known types: rendered, never noted
  // as unknown.
  EXPECT_NE(result.stdout_text.find("sigma search:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("anonymize attempts:"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("reliability relevance:"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stderr_text.find("sigma_search"), std::string::npos)
      << result.stderr_text;
  EXPECT_EQ(result.stderr_text.find("anonymize_attempt"), std::string::npos);
  EXPECT_EQ(result.stderr_text.find("relevance_progress"),
            std::string::npos);
  // hw_counters is a known type: rendered (as the --hw hint), never in
  // the unknown-type notes.
  EXPECT_EQ(result.stderr_text.find("hw_counters"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("hw counters:"), std::string::npos)
      << result.stdout_text;
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, HwViewRendersBottleneckTable) {
  const std::string path = WriteStream("fc_hw.jsonl", MixedStream());
  const RunResult result =
      RunCommand(std::string(OBS_DUMP_BIN) + " --hw " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("privacy/obf_check"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("balanced"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("emulated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, HwViewExplainsUnavailableCounters) {
  const std::string path = WriteStream(
      "fc_hw_unavail.jsonl",
      "{\"type\":\"hw_counters_unavailable\",\"t_ms\":1,"
      "\"reason\":\"perf_event_paranoid\"}\n"
      "{\"type\":\"run_summary\",\"t_ms\":2,\"wall_ms\":1.0}\n");
  const RunResult result =
      RunCommand(std::string(OBS_DUMP_BIN) + " --hw " + path);
  // No table to print is still an error exit, but the reason is relayed
  // instead of the generic rerun hint.
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("perf_event_paranoid"),
            std::string::npos)
      << result.stderr_text;
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, OnlyUnknownTypesIsNotAnError) {
  const std::string path = WriteStream(
      "fc_unknown.jsonl",
      "{\"type\":\"quantum_flux\",\"t_ms\":1}\n"
      "{\"type\":\"tachyon_burst\",\"t_ms\":2}\n");
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  // Typed records exist, so this is a valid (if empty-looking) stream.
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u);
  EXPECT_EQ(CountOccurrences(result.stderr_text, "tachyon_burst"), 1u);
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, StreamWithNoTypedRecordsStillFails) {
  const std::string path =
      WriteStream("fc_garbage.jsonl", "not json at all\n{\"a\":1}\n");
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("no chameleon obs records"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(WatchForwardCompatTest, UnknownTypesPassThroughWithOneNote) {
  const std::string path = WriteStream("fc_watch.jsonl", MixedStream());
  const RunResult result =
      RunCommand(std::string(WATCH_BIN) + " --once " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u)
      << result.stderr_text;
  // privacy_check renders as a human line; the summary closes the run.
  EXPECT_NE(result.stdout_text.find("obfuscation VIOLATED"),
            std::string::npos)
      << result.stdout_text;
  // The anonymization records render as one-liners, never as unknown.
  EXPECT_NE(result.stdout_text.find("sigma search done"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("RSME expand level 0"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("relevance anonymize/relevance"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stderr_text.find("sigma_search"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("run finished"), std::string::npos);
  // hw_counters renders as the one-line ipc/cache-miss note, not as an
  // unknown type.
  EXPECT_EQ(result.stderr_text.find("hw_counters"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("hw privacy/obf_check"),
            std::string::npos)
      << result.stdout_text;
  std::remove(path.c_str());
}

TEST(WatchForwardCompatTest, CrashFrameCountSeesBracketsInsideFrames) {
  // The first frame's "[]" must not end the frames array early.
  const std::string path = WriteStream(
      "fc_crash.jsonl",
      "{\"type\":\"crash\",\"t_ms\":1,\"signal\":11,"
      "\"signal_name\":\"SIGSEGV\",\"si_code\":1,\"tid\":1,"
      "\"fault_addr\":\"0x0\",\"frames\":["
      "\"std::vector<int>::operator[](unsigned long)\","
      "\"chameleon::Run(int, char**)\",\"main\"],"
      "\"rusage\":{\"user_cpu_ms\":1,\"system_cpu_ms\":0,"
      "\"max_rss_kb\":1,\"minflt\":0,\"majflt\":0}}\n");
  const RunResult watch =
      RunCommand(std::string(WATCH_BIN) + " --once " + path);
  EXPECT_EQ(watch.exit_code, 0) << watch.stderr_text;
  EXPECT_NE(watch.stdout_text.find("3 frames"), std::string::npos)
      << watch.stdout_text;
  const RunResult dump = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(dump.exit_code, 0) << dump.stderr_text;
  EXPECT_NE(dump.stdout_text.find("#2 main"), std::string::npos)
      << dump.stdout_text;
  std::remove(path.c_str());
}

TEST(ForwardCompatTest, NestedUnknownRecordPassesThroughBothReaders) {
  // An unknown type carrying a nested object, an array, and a \u0001
  // string: each reader notes the type once and renders the rest.
  const std::string path = WriteStream(
      "fc_nested.jsonl",
      "{\"type\":\"wormhole\",\"t_ms\":1,"
      "\"cfg\":{\"gate\":{\"open\":true},\"path\":\"x]}\"},"
      "\"hops\":[1,{\"a\":[2,3]},\"b\"],\"note\":\"bell\\u0001ring\"}\n"
      "{\"type\":\"wormhole\",\"t_ms\":2,\"hops\":[]}\n"
      "{\"type\":\"run_summary\",\"t_ms\":3,\"wall_ms\":4.5}\n");
  for (const std::string& bin :
       {std::string(OBS_DUMP_BIN) + " ", std::string(WATCH_BIN) + " --once "}) {
    const RunResult result = RunCommand(bin + path);
    EXPECT_EQ(result.exit_code, 0) << bin << result.stderr_text;
    EXPECT_EQ(CountOccurrences(result.stderr_text, "wormhole"), 1u)
        << bin << result.stderr_text;
    EXPECT_NE(result.stdout_text.find("4.5"), std::string::npos)
        << bin << result.stdout_text;
  }
  std::remove(path.c_str());
}

TEST(ToolSmokeTest, ObfCheckClassifiesCommittedFixtures) {
  // The CLI end of the CI smoke: both committed fixtures run through
  // the real binary and land on the expected verdicts.
  const std::string dir = CHAMELEON_EXAMPLES_DIR;
  const RunResult good = RunCommand(std::string(OBF_CHECK_BIN) +
                                    " --k=8 --eps=0.05 " + dir +
                                    "/graphs/cycle_obfuscated.edges");
  EXPECT_EQ(good.exit_code, 0) << good.stderr_text;
  EXPECT_NE(good.stdout_text.find("SATISFIED"), std::string::npos)
      << good.stdout_text;

  const RunResult bad = RunCommand(std::string(OBF_CHECK_BIN) +
                                   " --k=8 --eps=0.05 " + dir +
                                   "/graphs/star_not_obfuscated.edges");
  EXPECT_EQ(bad.exit_code, 0) << bad.stderr_text;
  EXPECT_NE(bad.stdout_text.find("VIOLATED"), std::string::npos)
      << bad.stdout_text;

  // Usage errors exit 2.
  const RunResult usage = RunCommand(std::string(OBF_CHECK_BIN));
  EXPECT_EQ(usage.exit_code, 2);
  // Runtime errors (missing graph) exit 1.
  const RunResult missing =
      RunCommand(std::string(OBF_CHECK_BIN) + " /nonexistent.edges");
  EXPECT_EQ(missing.exit_code, 1);
}

}  // namespace
}  // namespace chameleon
