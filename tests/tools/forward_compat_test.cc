// Forward-compatibility contract of the JSONL reader: a metrics stream
// written by a newer library — containing record types this build has
// never heard of — must still render through chameleon_obs_dump, read
// whole or followed live. Unknown types pass through with one debug note
// per type, count toward the record total, and are never a per-record
// warning or an error. Drives the real tool binaries (paths injected by
// CMake) over crafted streams.

#include <sys/wait.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/trace_export.h"

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

/// A stream mixing known records, a privacy_check, three records of a
/// type from "the future", and the status_server, watchdog_stall,
/// hw_counters, hw_counters_unavailable, heap_profile, heap_timeline,
/// heap_profiler_unavailable, snapshot and flight_event_dump records
/// that builds before the status server's, the stall watchdog's, the
/// hardware-counter engine's, the heap profiler's and the flight
/// recorder's removal wrote.
std::string MixedStream() {
  return
      "{\"type\":\"manifest\",\"tool\":\"future_tool\","
      "\"git_describe\":\"v9\"}\n"
      "{\"type\":\"status_server\",\"t_ms\":1,"
      "\"address\":\"127.0.0.1\",\"port\":18570}\n"
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
      "{\"type\":\"watchdog_stall\",\"t_ms\":4,"
      "\"path\":\"reliability/two_terminal\",\"tid\":0,"
      "\"idle_ms\":31250,\"open_ms\":40000,\"stall_seconds\":30,"
      "\"aborting\":false}\n"
      "{\"type\":\"hw_counters\",\"t_ms\":4,\"path\":\"privacy/obf_check\","
      "\"backend\":\"emulated\",\"spans\":2,\"cycles\":3000000,"
      "\"instructions\":3750000,\"cache_refs\":234375,"
      "\"cache_misses\":29296,\"branch_misses\":14648,"
      "\"stalled_backend\":750000,\"task_clock_ns\":1000000,"
      "\"ipc\":1.25,\"cache_miss_rate\":0.125,"
      "\"branch_miss_rate\":0.003906,\"class\":\"balanced\"}\n"
      "{\"type\":\"hw_counters_unavailable\",\"t_ms\":4,"
      "\"reason\":\"perf_event_paranoid\"}\n"
      "{\"type\":\"heap_profile\",\"t_ms\":4,"
      "\"span_path\":\"mc_reliability/load_graph\",\"samples\":5,"
      "\"cum_bytes\":262144,\"cum_allocs\":5,\"live_bytes\":131072,"
      "\"live_allocs\":1,\"peak_bytes\":196608,\"leak_bytes\":131072,"
      "\"allowlisted\":false,\"sample_bytes\":4096,\"scale\":1,"
      "\"frames\":[\"operator new(unsigned long)\","
      "\"chameleon::graph::UncertainGraphBuilder::AddEdge(...)\"]}\n"
      "{\"type\":\"heap_timeline\",\"t_ms\":4,\"sample_bytes\":4096,"
      "\"duration_ms\":595.8,\"samples\":70,\"dropped\":0,\"sites\":34,"
      "\"est_cum_bytes\":974127,\"est_cum_allocs\":1200,"
      "\"est_live_bytes\":320864,\"est_peak_bytes\":603980,"
      "\"exact_cum_bytes\":1158676,\"exact_cum_allocs\":8771,"
      "\"points\":[{\"mono_ns\":1000,\"live_bytes\":0,\"cum_bytes\":0,"
      "\"cum_allocs\":0,\"rss_kb\":5240}]}\n"
      "{\"type\":\"heap_profiler_unavailable\",\"t_ms\":4,"
      "\"reason\":\"heap profiling not requested (--heap_profile)\"}\n"
      "{\"type\":\"snapshot\",\"t_ms\":4,\"label\":\"load_graph\","
      "\"metrics\":{\"counters\":{\"graph/io/edges_read\":9},"
      "\"gauges\":{},\"histograms\":{}}}\n"
      "{\"type\":\"flight_event_dump\",\"t_ms\":5,\"signal\":11,"
      "\"threads\":1,\"events\":2,\"recorded\":2,\"dropped\":0,"
      "\"tail\":[\"-0.010s tid1 span_open reliability/two_terminal a=1 b=0\","
      "\"-0.001s tid1 checkpoint reliability/two_terminal a=4096 b=0\"],"
      "\"rings\":[{\"tid\":1,\"recorded\":2,\"dropped\":0,"
      "\"events\":[]}]}\n"
      "{\"type\":\"run_summary\",\"t_ms\":5,\"wall_ms\":12.5}\n";
}

/// The heap profiler's three record types, snapshots and flight-recorder
/// dumps are unknown like any other: one note each, and no report or
/// live line.
void ExpectRemovedRecordsPassThrough(const RunResult& result) {
  for (const char* type :
       {"\"heap_profile\"", "\"heap_timeline\"",
        "\"heap_profiler_unavailable\"", "\"snapshot\"",
        "\"flight_event_dump\""}) {
    EXPECT_EQ(CountOccurrences(result.stderr_text, type), 1u)
        << type << "\n" << result.stderr_text;
  }
  EXPECT_EQ(result.stdout_text.find("heap profile"), std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stdout_text.find("flight recorder"), std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stdout_text.find("snapshot"), std::string::npos)
      << result.stdout_text;
}

TEST(ObsDumpForwardCompatTest, UnknownTypesPassThroughWithOneNote) {
  const std::string path = WriteStream("fc_mixed.jsonl", MixedStream());
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  // One note for three records of the unknown type — never per record.
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown type"), std::string::npos);
  // A record type this build no longer writes is unknown like any other.
  EXPECT_EQ(CountOccurrences(result.stderr_text, "watchdog_stall"), 1u)
      << result.stderr_text;
  EXPECT_EQ(result.stdout_text.find("WATCHDOG"), std::string::npos)
      << result.stdout_text;
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
  // The hardware-counter records are no longer written: like
  // watchdog_stall, one note each and no report line.
  EXPECT_EQ(CountOccurrences(result.stderr_text, "\"hw_counters\""), 1u)
      << result.stderr_text;
  EXPECT_EQ(
      CountOccurrences(result.stderr_text, "\"hw_counters_unavailable\""),
      1u)
      << result.stderr_text;
  EXPECT_EQ(result.stdout_text.find("hw counters"), std::string::npos)
      << result.stdout_text;
  // So is the status server's record, and so are the heap profiler's,
  // the snapshot and the flight-recorder dump.
  EXPECT_EQ(CountOccurrences(result.stderr_text, "\"status_server\""), 1u)
      << result.stderr_text;
  EXPECT_EQ(result.stdout_text.find("status_server"), std::string::npos)
      << result.stdout_text;
  ExpectRemovedRecordsPassThrough(result);
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, RemovedViewsAreUsageErrors) {
  const std::string path = WriteStream("fc_views.jsonl", MixedStream());
  for (const char* view : {"--hw", "--heap", "--heap_sort=live"}) {
    const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " +
                                        view + " " + path);
    EXPECT_EQ(result.exit_code, 2) << view << "\n" << result.stderr_text;
  }
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

/// obs_dump --follow under a timeout: a reader that never sees its
/// run_summary fails the test instead of hanging it.
std::string FollowCommand(const std::string& path) {
  return "timeout 30 " + std::string(OBS_DUMP_BIN) + " --follow " + path;
}

TEST(FollowForwardCompatTest, UnknownTypesPassThroughWithOneNote) {
  const std::string path = WriteStream("fc_follow.jsonl", MixedStream());
  const RunResult result = RunCommand(FollowCommand(path));
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u)
      << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "watchdog_stall"), 1u)
      << result.stderr_text;
  EXPECT_EQ(result.stdout_text.find("WATCHDOG"), std::string::npos)
      << result.stdout_text;
  // The anonymization records render as live lines, never as unknown.
  EXPECT_NE(result.stdout_text.find("RSME expand level 0"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("sigma search done"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("relevance anonymize/relevance"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stderr_text.find("sigma_search"), std::string::npos)
      << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "\"hw_counters\""), 1u)
      << result.stderr_text;
  EXPECT_EQ(
      CountOccurrences(result.stderr_text, "\"hw_counters_unavailable\""),
      1u)
      << result.stderr_text;
  // The run_summary closes the stream with the full report.
  EXPECT_NE(result.stdout_text.find("privacy checks:"), std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stdout_text.find("hw counters"), std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "\"status_server\""), 1u)
      << result.stderr_text;
  EXPECT_EQ(result.stdout_text.find("status_server"), std::string::npos)
      << result.stdout_text;
  ExpectRemovedRecordsPassThrough(result);
  std::remove(path.c_str());
}

TEST(FollowForwardCompatTest, FinishedStreamEndsWithThePlainReport) {
  const std::string path = WriteStream("fc_follow_same.jsonl", MixedStream());
  const RunResult plain = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  const RunResult follow = RunCommand(FollowCommand(path));
  ASSERT_EQ(plain.exit_code, 0) << plain.stderr_text;
  EXPECT_EQ(follow.exit_code, 0) << follow.stderr_text;
  EXPECT_EQ(follow.stderr_text, plain.stderr_text);
  // Live lines first, then byte for byte what the one-shot read prints.
  ASSERT_GT(follow.stdout_text.size(), plain.stdout_text.size());
  const std::size_t live = follow.stdout_text.size() - plain.stdout_text.size();
  EXPECT_EQ(follow.stdout_text.substr(live), plain.stdout_text);
  EXPECT_EQ(follow.stdout_text.substr(0, live),
            "relevance anonymize/relevance: 200/200 worlds, mean ERR 3.25, "
            "rel err 0.123 [final]\n"
            "RSME expand level 0 attempt 0: sigma=0.05 -> eps_hat=0.25 "
            "failed\n"
            "RSME sigma search done: best sigma=0.1875 (feasible)\n")
      << follow.stdout_text;
  std::remove(path.c_str());
}

TEST(FollowForwardCompatTest, CrashFrameCountSeesBracketsInsideFrames) {
  // The first frame's "[]" must not end the frames array early.
  const std::string path = WriteStream(
      "fc_crash.jsonl",
      "{\"type\":\"crash\",\"t_ms\":1,\"signal\":11,"
      "\"signal_name\":\"SIGSEGV\",\"si_code\":1,\"tid\":1,"
      "\"fault_addr\":\"0x0\",\"frames\":["
      "\"std::vector<int>::operator[](unsigned long)\","
      "\"chameleon::Run(int, char**)\",\"main\"],"
      "\"rusage\":{\"user_cpu_ms\":1,\"system_cpu_ms\":0,"
      "\"max_rss_kb\":1,\"minflt\":0,\"majflt\":0}}\n"
      "{\"type\":\"run_summary\",\"t_ms\":2,\"wall_ms\":3,"
      "\"signal\":11}\n");
  for (const std::string& command :
       {std::string(OBS_DUMP_BIN) + " " + path, FollowCommand(path)}) {
    const RunResult result = RunCommand(command);
    EXPECT_EQ(result.exit_code, 0) << command << result.stderr_text;
    EXPECT_NE(result.stdout_text.find("#2 main"), std::string::npos)
        << command << result.stdout_text;
  }
  const RunResult follow = RunCommand(FollowCommand(path));
  EXPECT_NE(follow.stdout_text.find("CRASH: SIGSEGV (signal 11) at 0x0 — "
                                    "3 frames\n"),
            std::string::npos)
      << follow.stdout_text;
  std::remove(path.c_str());
}

TEST(FollowForwardCompatTest, HalfWrittenRecordIsReadWhole) {
  // A writer that has flushed half a record must not make the reader
  // parse the two halves as two lines, and the reader keeps polling
  // until the run_summary lands.
  const std::string record =
      "{\"type\":\"sigma_search\",\"t_ms\":2,\"method\":\"RSME\","
      "\"phase\":\"final\",\"level\":3,\"sigma\":0.2,\"lo\":0.1,"
      "\"hi\":0.2,\"success\":true,\"eps_hat\":0.04,\"attempts\":5,"
      "\"best_sigma\":0.1875}\n";
  const std::size_t half = record.size() / 2;
  const std::string path =
      WriteStream("fc_follow_half.jsonl", record.substr(0, half));
  std::thread writer([&] {
    // Each pause outlasts the reader's 500 ms poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    std::ofstream(path, std::ios::app) << record.substr(half) << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    std::ofstream(path, std::ios::app)
        << "{\"type\":\"run_summary\",\"t_ms\":3,\"wall_ms\":7.25}\n"
        << std::flush;
  });
  const RunResult result = RunCommand(FollowCommand(path));
  writer.join();
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_NE(result.stdout_text.find(
                "RSME sigma search done: best sigma=0.1875 (feasible)\n"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("sigma search:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("run wall time: 7.250 ms"),
            std::string::npos)
      << result.stdout_text;
  std::remove(path.c_str());
}

TEST(ChromeTraceTest, MatchesTheLibraryConversion) {
  const std::string stream =
      "{\"type\":\"manifest\",\"tool\":\"t\",\"git_describe\":\"v9\"}\n"
      "{\"type\":\"span\",\"t_ms\":1,\"path\":\"a\",\"mono_ns\":1000,"
      "\"dur_ns\":5000,\"tid\":0,\"cpu_ns\":4000}\n"
      "{\"type\":\"span\",\"t_ms\":1,\"path\":\"a/b\",\"mono_ns\":2000,"
      "\"dur_ns\":1000,\"tid\":1}\n"
      "{\"type\":\"snapshot\",\"t_ms\":1,\"label\":\"phase\"}\n"
      "{\"type\":\"progress\",\"t_ms\":1,\"label\":\"w\","
      "\"done\":3,\"total\":9}\n"
      "not a record\n"
      "{\"type\":\"run_summary\",\"t_ms\":2,\"wall_ms\":4.5}\n";
  const std::string path = WriteStream("fc_trace.jsonl", stream);
  const std::string out = testing::TempDir() + "/fc_trace.json";
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) +
                                      " --chrome_trace=" + out + " " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("wrote " + out + ": 2 spans"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stderr_text.find("skipped 1 non-record lines"),
            std::string::npos)
      << result.stderr_text;

  std::vector<std::string> lines;
  std::istringstream split(stream);
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  std::ifstream written(out);
  const std::string trace((std::istreambuf_iterator<char>(written)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(trace, obs::ChromeTraceFromJsonlLines(lines));
  std::remove(path.c_str());
  std::remove(out.c_str());
}

TEST(ForwardCompatTest, NestedUnknownRecordPassesThroughBothModes) {
  // An unknown type carrying a nested object, an array, and a \u0001
  // string: each mode notes the type once and renders the rest.
  const std::string path = WriteStream(
      "fc_nested.jsonl",
      "{\"type\":\"wormhole\",\"t_ms\":1,"
      "\"cfg\":{\"gate\":{\"open\":true},\"path\":\"x]}\"},"
      "\"hops\":[1,{\"a\":[2,3]},\"b\"],\"note\":\"bell\\u0001ring\"}\n"
      "{\"type\":\"wormhole\",\"t_ms\":2,\"hops\":[]}\n"
      "{\"type\":\"run_summary\",\"t_ms\":3,\"wall_ms\":4.5}\n");
  for (const std::string& command :
       {std::string(OBS_DUMP_BIN) + " " + path, FollowCommand(path)}) {
    const RunResult result = RunCommand(command);
    EXPECT_EQ(result.exit_code, 0) << command << result.stderr_text;
    EXPECT_EQ(CountOccurrences(result.stderr_text, "wormhole"), 1u)
        << command << result.stderr_text;
    EXPECT_NE(result.stdout_text.find("4.5"), std::string::npos)
        << command << result.stdout_text;
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

  // Usage errors exit 2, among them --kernel, which older builds took.
  const RunResult usage = RunCommand(std::string(OBF_CHECK_BIN));
  EXPECT_EQ(usage.exit_code, 2);
  const RunResult kernel =
      RunCommand(std::string(OBF_CHECK_BIN) + " --kernel=gaussian --k=8 " +
                 "--eps=0.05 " + dir + "/graphs/cycle_obfuscated.edges");
  EXPECT_EQ(kernel.exit_code, 2) << kernel.stdout_text;
  EXPECT_NE(kernel.stderr_text.find("unknown flag --kernel"),
            std::string::npos)
      << kernel.stderr_text;
  // Runtime errors (missing graph) exit 1.
  const RunResult missing =
      RunCommand(std::string(OBF_CHECK_BIN) + " /nonexistent.edges");
  EXPECT_EQ(missing.exit_code, 1);
}

}  // namespace
}  // namespace chameleon
