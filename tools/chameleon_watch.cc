// Tails a chameleon metrics JSONL stream and renders live progress: one
// line per heartbeat / estimator-convergence record, ending with the run
// summary. Point it at the file a long Monte Carlo run is writing:
//
//   chameleon_mc_reliability --worlds=100000000 --metrics_out=run.jsonl &
//   chameleon_watch run.jsonl
//   [reliability/two_terminal/sample_worlds] 1534000/100000000 (1.5%) 3.1e+06/s ETA 31.7s
//   [reliability/two_terminal] n=2097152 mean=0.2513 ci_halfwidth=0.000587 (1.3e+06/s)
//   ...
//   run finished: wall 32188.4 ms
//
// Follows the file until a run_summary record arrives (or forever with a
// stream that never finishes — interrupt with Ctrl-C). --once renders the
// current contents, prints a final convergence table, and exits; use it
// on completed runs and in scripts.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "chameleon/obs/run_context.h"
#include "chameleon/obs/record.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/status.h"
#include "chameleon/util/string_util.h"

namespace chameleon {
namespace {

constexpr auto kString = obs::JsonValue::Kind::kString;
constexpr auto kNumber = obs::JsonValue::Kind::kNumber;

struct WatchState {
  std::map<std::string, std::string> last_estimator_line;
  std::set<std::string> unknown_types_noted;
  std::size_t records = 0;
  bool summary_seen = false;
  double wall_ms = 0.0;
};

/// Renders one JSONL record as a human line; empty string for record
/// types the watcher does not surface (spans, snapshots) and for lines
/// that are not JSON records. Unknown types are forward-compatible
/// passthrough: they count toward the record total and produce one
/// stderr note per type, never a per-record warning — newer writers may
/// emit records this build has never heard of.
std::string RenderRecord(const std::string& line, WatchState* state) {
  const std::optional<obs::JsonValue> parsed = obs::ParseJson(line);
  const obs::JsonValue* type_value =
      parsed.has_value() ? parsed->Get("type", kString) : nullptr;
  if (type_value == nullptr) return "";
  const obs::JsonValue& r = *parsed;
  const std::string& type = type_value->str();
  ++state->records;
  if (type == "manifest") {
    // build/host nest the provenance fields; look them up at any depth.
    const obs::JsonValue* describe = r.Find("git_describe", kString);
    return StrFormat("watching %s (%s)\n", r.Str("tool", "?").c_str(),
                     describe != nullptr ? describe->str().c_str()
                                         : "unknown build");
  }
  if (type == "progress") {
    const double done = r.Num("done");
    const double total = r.Num("total");
    const double rate = r.Num("rate_per_s");
    std::string text = StrFormat("[%s] %.0f", r.Str("label", "?").c_str(),
                                 done);
    if (total > 0.0) {
      text += StrFormat("/%.0f (%.1f%%)", total, 100.0 * done / total);
    }
    text += StrFormat(" %.3g/s", rate);
    if (total > done && rate > 0.0) {
      text += StrFormat(" ETA %.1fs", r.Num("eta_s"));
    }
    if (r.Flag("final")) text += " [finished]";
    return text + "\n";
  }
  if (type == "estimator_progress") {
    const std::string label = r.Str("label", "?");
    std::string text = StrFormat(
        "[%s] n=%.0f mean=%.6g ci_halfwidth=%.4g (%.3g/s)", label.c_str(),
        r.Num("samples"), r.Num("mean"), r.Num("ci_halfwidth"),
        r.Num("rate_per_s"));
    if (r.Flag("final")) {
      text += r.Flag("stopped_early") ? " [stopped early]" : " [done]";
    }
    state->last_estimator_line[label] = text;
    return text + "\n";
  }
  if (type == "status_server") {
    return StrFormat("statusz live at http://%s:%.0f/statusz\n",
                     r.Str("address", "127.0.0.1").c_str(), r.Num("port"));
  }
  if (type == "graph_summary") {
    return StrFormat("graph %s: %.0f nodes, %.0f edges, mean p %.3f\n",
                     r.Str("origin", "?").c_str(), r.Num("nodes"),
                     r.Num("edges"), r.Num("mean_p"));
  }
  if (type == "profile") {
    return StrFormat(
        "profile captured: %.0f samples at %.0f Hz (%.0f dropped)\n",
        r.Num("samples"), r.Num("hz"), r.Num("dropped"));
  }
  if (type == "privacy_check") {
    return StrFormat(
        "(k=%.4g, eps=%.4g)-obfuscation %s: eps_hat=%.6g "
        "(%.0f/%.0f vertices exposed)\n",
        r.Num("k"), r.Num("eps"),
        r.Flag("obfuscated") ? "SATISFIED" : "VIOLATED", r.Num("eps_hat"),
        r.Num("not_obfuscated"), r.Num("vertices"));
  }
  if (type == "anonymize_attempt") {
    return StrFormat(
        "%s %s level %.0f attempt %.0f: sigma=%.4g -> eps_hat=%.4g %s\n",
        r.Str("method", "?").c_str(), r.Str("phase", "?").c_str(),
        r.Num("level"), r.Num("attempt"), r.Num("sigma"), r.Num("eps_hat"),
        r.Flag("success") ? "OK" : "failed");
  }
  if (type == "sigma_search") {
    const std::string method = r.Str("method", "?");
    const std::string phase = r.Str("phase", "?");
    const bool success = r.Flag("success");
    if (phase == "final") {
      return StrFormat("%s sigma search done: best sigma=%.4g (%s)\n",
                       method.c_str(), r.Num("best_sigma"),
                       success ? "feasible" : "infeasible");
    }
    return StrFormat("%s sigma search [%s] level %.0f: sigma=%.4g %s "
                     "(best %.4g)\n",
                     method.c_str(), phase.c_str(), r.Num("level"),
                     r.Num("sigma"), success ? "succeeded" : "failed",
                     r.Num("best_sigma"));
  }
  if (type == "relevance_progress") {
    return StrFormat(
        "relevance %s: %.0f/%.0f worlds, mean ERR %.4g, rel err %.4g%s\n",
        r.Str("label", "?").c_str(), r.Num("worlds"), r.Num("total_worlds"),
        r.Num("mean_err"), r.Num("rel_err"), r.Flag("final") ? " [final]" : "");
  }
  if (type == "crash") {
    std::string text = StrFormat("CRASH: %s (signal %.0f)",
                                 r.Str("signal_name", "?").c_str(),
                                 r.Num("signal"));
    if (const obs::JsonValue* addr = r.Get("fault_addr", kString)) {
      text += " at " + addr->str();
    }
    if (const obs::JsonValue* span = r.Get("span_path", kString)) {
      text += " in span " + span->str();
    }
    const obs::JsonValue* frames = r.Get("frames");
    text += StrFormat(" — %zu frames, run obs_dump for the backtrace",
                      frames != nullptr ? frames->elements().size() : 0);
    return text + "\n";
  }
  if (type == "watchdog_stall") {
    return StrFormat("WATCHDOG: %s idle %.1fs (threshold %.1fs)%s\n",
                     r.Str("path", "?").c_str(), r.Num("idle_ms") * 1e-3,
                     r.Num("stall_seconds"),
                     r.Flag("aborting") ? " — aborting the run" : "");
  }
  if (type == "flight_event_dump") {
    return StrFormat(
        "flight recorder dumped: %.0f events across %.0f threads (see "
        "obs_dump for the tail)\n",
        r.Num("events"), r.Num("threads"));
  }
  if (type == "parallel_region") {
    const std::string name = r.Str("name", "?");
    if (r.Flag("partial")) {
      return StrFormat(
          "parallel %s INTERRUPTED: %.0f/%.0f blocks done on %.0f workers\n",
          name.c_str(), r.Num("blocks_done"), r.Num("blocks"),
          r.Num("workers"));
    }
    return StrFormat(
        "parallel %s: %.0f/%.0f workers, %.2f ms, speedup %.2fx "
        "(eff %.0f%%, imbalance %.2f)\n",
        name.c_str(), r.Num("workers"), r.Num("requested"),
        r.Num("wall_ns") * 1e-6, r.Num("speedup"), r.Num("efficiency") * 100.0,
        r.Num("imbalance"));
  }
  if (type == "hw_counters") {
    return StrFormat(
        "hw %s: ipc %.2f, cache miss %.1f%% over %.0f spans [%s]\n",
        r.Str("path", "?").c_str(), r.Num("ipc"),
        r.Num("cache_miss_rate") * 100.0, r.Num("spans"),
        r.Str("class", "unknown").c_str());
  }
  if (type == "hw_counters_unavailable") {
    return StrFormat("hw counters unavailable: %s\n",
                     r.Str("reason", "?").c_str());
  }
  if (type == "heap_profile") {
    return StrFormat(
        "heap %s: cum %.2f MiB, live %.1f KiB over %.0f samples%s\n",
        r.Str("span_path", "?").c_str(), r.Num("cum_bytes") / 1048576.0,
        r.Num("live_bytes") / 1024.0, r.Num("samples"),
        r.Flag("allowlisted") ? " [allowlisted]" : "");
  }
  if (type == "heap_timeline") {
    return StrFormat(
        "heap profile: %.0f samples, est peak %.2f MiB, exact cum "
        "%.2f MiB (see obs_dump --heap)\n",
        r.Num("samples"), r.Num("est_peak_bytes") / 1048576.0,
        r.Num("exact_cum_bytes") / 1048576.0);
  }
  if (type == "heap_profiler_unavailable") {
    return StrFormat("heap profiler unavailable: %s\n",
                     r.Str("reason", "?").c_str());
  }
  if (type == "run_summary") {
    state->summary_seen = true;
    state->wall_ms = r.Num("wall_ms");
    std::string text = StrFormat("run finished: wall %.1f ms", state->wall_ms);
    if (const obs::JsonValue* signal = r.Get("signal", kNumber)) {
      text += StrFormat(" (killed by signal %.0f)", signal->number());
    }
    return text + "\n";
  }
  if (type != "span" && type != "snapshot" &&
      state->unknown_types_noted.insert(type).second) {
    std::fprintf(stderr,
                 "note: passing through unknown record type \"%s\"\n",
                 type.c_str());
  }
  return "";
}

void PrintConvergenceSummary(const WatchState& state) {
  if (state.last_estimator_line.empty()) return;
  std::printf("\nfinal estimator state:\n");
  for (const auto& [label, text] : state.last_estimator_line) {
    std::printf("  %s\n", text.c_str());
  }
}

int Watch(const std::string& path, bool once, std::int64_t interval_ms) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  WatchState state;
  std::string line;
  for (;;) {
    for (;;) {
      // Remember where this line starts: if the file currently ends
      // mid-line (the writer is between write() and the newline),
      // getline would consume the fragment and the remainder appended
      // before the next poll would parse as a separate garbage record.
      // Rewind to the fragment start instead and re-read it whole.
      const std::istream::pos_type line_start = in.tellg();
      if (!std::getline(in, line)) break;
      if (in.eof() && !once) {
        in.clear();
        in.seekg(line_start);
        break;
      }
      const std::string text = RenderRecord(line, &state);
      if (!text.empty()) {
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
      }
    }
    if (once || state.summary_seen) break;
    // EOF: clear the stream state and poll for appended lines.
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  if (once) {
    PrintConvergenceSummary(state);
    if (!state.summary_seen) {
      std::printf("(no run_summary yet — run still in flight?)\n");
    }
  }
  if (state.records == 0) {
    std::fprintf(stderr,
                 "%s: no chameleon obs records found (is it a metrics "
                 "JSONL?)\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_watch: tail a metrics JSONL stream and render live "
      "progress");
  flags.AddString("input", "", "metrics JSONL path (or first positional)");
  flags.AddBool("once", false,
                "render current contents + convergence summary, then exit");
  flags.AddInt64("interval_ms", 500, "poll interval while following");
  flags.AddBool("version", false, "print build provenance and exit");
  flags.AddBool("help", false, "show usage");

  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "error: %s\n%s", s.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fprintf(stdout, "%s", flags.Usage().c_str());
    return 0;
  }
  if (flags.GetBool("version")) {
    std::fprintf(stdout, "%s", obs::VersionString("chameleon_watch").c_str());
    return 0;
  }
  std::string path = flags.GetString("input");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional().front();
  }
  if (path.empty()) {
    std::fprintf(stderr, "error: no input file\n%s", flags.Usage().c_str());
    return 2;
  }
  const std::int64_t interval_ms = flags.GetInt64("interval_ms");
  if (interval_ms <= 0) {
    std::fprintf(stderr, "error: --interval_ms must be positive\n");
    return 2;
  }
  static_cast<void>(obs::InstallCrashForensics());
  return Watch(path, flags.GetBool("once"), interval_ms);
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
