// Pretty-prints a chameleon metrics JSONL file (produced via
// --metrics_out= or $CHAMELEON_METRICS) as a per-phase timing table:
//
//   $ chameleon_obs_dump run.jsonl
//   manifest: chameleon_mc_reliability v0-3-g7904802 on hostname (seed rng=2018)
//   phase                                   calls   total ms    self ms     cpu ms   %run
//   reliability/two_terminal                    1     812.44       0.54     811.02   74.1
//   ...
//   critical path: reliability/two_terminal > sample_worlds (811.90 ms)
//
// "self" is total minus the time attributed to direct child phases; "cpu"
// is the span's thread CPU time plus that of the ParallelForBlocks
// workers it forked. The final run summary's counters and process rusage
// close the report.
//
// --follow tails a stream that is still being written, one line per
// progress-like record as it lands, and prints the report once the
// run_summary arrives (interrupt with Ctrl-C if it never does):
//
//   chameleon_mc_reliability --worlds=100000000 --metrics_out=run.jsonl &
//   chameleon_obs_dump --follow run.jsonl
//   [reliability/two_terminal/sample_worlds] 1534000/100000000 (1.5%) 3.1e+06/s ETA 31.7s
//
// --chrome_trace=<out.json> writes the stream as Chrome trace-event JSON
// for chrome://tracing and ui.perfetto.dev instead of the report.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "chameleon/obs/crash_handler.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/obs/trace.h"
#include "chameleon/obs/trace_export.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/status.h"
#include "chameleon/util/string_util.h"

namespace chameleon {
namespace {

using obs::JsonValue;
constexpr auto kString = JsonValue::Kind::kString;
constexpr auto kNumber = JsonValue::Kind::kNumber;
constexpr auto kObject = JsonValue::Kind::kObject;

/// How often --follow re-reads a stream that has not reached its
/// run_summary yet.
constexpr std::chrono::milliseconds kFollowPoll{500};

struct PhaseAggregate {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< computed after loading: total - direct children
  double cpu_ns = 0.0;
  double max_ns = 0.0;
};

/// Aggregate of "parallel_region" records sharing one index-stripped
/// region name (loop iterations fold together, like the phase table).
struct ParallelRegionDumpAgg {
  std::uint64_t regions = 0;
  double wall_ns = 0.0;
  double busy_ns = 0.0;
  double idle_ns = 0.0;
  double overhead_ns = 0.0;  ///< spawn + join
  double workers = 0.0;      ///< last seen
  double requested = 0.0;    ///< last seen
  double max_imbalance = 0.0;
};

struct DumpResult {
  std::map<std::string, PhaseAggregate> phases;
  std::map<std::string, ParallelRegionDumpAgg> parallel_regions;
  /// Every other record this build renders, by type, in stream order.
  std::map<std::string, std::vector<JsonValue>, std::less<>> records;
  /// Distinct record types this build does not recognize (forward-compat
  /// passthrough: counted, mentioned once each on stderr, never fatal).
  std::map<std::string, std::size_t> unknown_types;
  std::size_t typed_records = 0;  ///< every record with a "type" field
  std::size_t span_records = 0;
  std::size_t progress_records = 0;
  std::size_t estimator_records = 0;

  const std::vector<JsonValue>& Of(std::string_view type) const {
    static const std::vector<JsonValue> kNone;
    const auto it = records.find(type);
    return it == records.end() ? kNone : it->second;
  }
};

/// Record types stored whole by Load and rendered at print time.
constexpr std::string_view kStoredTypes[] = {
    "manifest", "run_summary", "graph_summary", "profile", "privacy_check",
    "sigma_search", "anonymize_attempt", "relevance_progress", "crash"};

/// Self time: a phase's total minus the time attributed to nested phases
/// (clamped at 0 — overlapping spans can over-subtract). Each phase
/// charges its nearest *present* ancestor, so a gap in the hierarchy
/// (e.g. `a/b/x/y` with no `a/b/x` span) still debits `a/b`.
void ComputeSelfTimes(std::map<std::string, PhaseAggregate>* phases) {
  std::map<std::string, double> children_ns;
  for (const auto& [path, agg] : *phases) {
    std::string ancestor = path;
    for (std::size_t slash = ancestor.rfind('/');
         slash != std::string::npos; slash = ancestor.rfind('/')) {
      ancestor.resize(slash);
      if (phases->count(ancestor) > 0) {
        children_ns[ancestor] += agg.total_ns;
        break;
      }
    }
  }
  for (auto& [path, agg] : *phases) {
    agg.self_ns = std::max(0.0, agg.total_ns - children_ns[path]);
  }
}

/// Folds one record into the aggregate; both the one-shot read and
/// --follow feed every record through here.
void Ingest(JsonValue record, DumpResult* out) {
  const JsonValue* type_value = record.Get("type", kString);
  if (type_value == nullptr) return;
  const std::string type = type_value->str();
  ++out->typed_records;
  if (type == "span") {
    const JsonValue* span_path = record.Get("path", kString);
    const JsonValue* dur = record.Get("dur_ns", kNumber);
    if (span_path == nullptr || dur == nullptr) return;
    ++out->span_records;
    PhaseAggregate& agg = out->phases[span_path->str()];
    ++agg.calls;
    agg.total_ns += dur->number();
    agg.cpu_ns += record.Num("cpu_ns");
    agg.max_ns = std::max(agg.max_ns, dur->number());
  } else if (type == "progress") {
    ++out->progress_records;
  } else if (type == "parallel_region") {
    const JsonValue* name = record.Get("name", kString);
    if (name == nullptr) return;
    // Older builds flushed a "partial" record for a region a fatal
    // signal cut short; it is not a completed region.
    if (record.Flag("partial")) return;
    ParallelRegionDumpAgg& agg = out->parallel_regions[name->str()];
    ++agg.regions;
    agg.wall_ns += record.Num("wall_ns");
    agg.busy_ns += record.Num("busy_total_ns");
    agg.idle_ns += record.Num("idle_total_ns");
    agg.overhead_ns += record.Num("spawn_ns") + record.Num("join_ns");
    agg.workers = record.Num("workers");
    agg.requested = record.Num("requested");
    agg.max_imbalance = std::max(agg.max_imbalance, record.Num("imbalance"));
  } else if (type == "estimator_progress") {
    if (record.Get("label", kString) == nullptr) return;
    ++out->estimator_records;
    out->records[type].push_back(std::move(record));
  } else if (std::find(std::begin(kStoredTypes), std::end(kStoredTypes),
                       type) != std::end(kStoredTypes)) {
    out->records[type].push_back(std::move(record));
  } else {
    ++out->unknown_types[type];
  }
}

/// The --follow line for one record; empty for types it does not
/// surface.
std::string LiveLine(const JsonValue& r) {
  const std::string type = r.Str("type");
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
    std::string text = StrFormat(
        "[%s] n=%.0f mean=%.6g ci_halfwidth=%.4g (%.3g/s)",
        r.Str("label", "?").c_str(), r.Num("samples"), r.Num("mean"),
        r.Num("ci_halfwidth"), r.Num("rate_per_s"));
    if (r.Flag("final")) {
      text += r.Flag("stopped_early") ? " [stopped early]" : " [done]";
    }
    return text + "\n";
  }
  if (type == "relevance_progress") {
    return StrFormat(
        "relevance %s: %.0f/%.0f worlds, mean ERR %.4g, rel err %.4g%s\n",
        r.Str("label", "?").c_str(), r.Num("worlds"), r.Num("total_worlds"),
        r.Num("mean_err"), r.Num("rel_err"), r.Flag("final") ? " [final]" : "");
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
  if (type == "crash") {
    std::string text = StrFormat("CRASH: %s (signal %.0f)",
                                 r.Str("signal_name", "?").c_str(),
                                 r.Num("signal"));
    if (const JsonValue* addr = r.Get("fault_addr", kString)) {
      text += " at " + addr->str();
    }
    if (const JsonValue* span = r.Get("span_path", kString)) {
      text += " in span " + span->str();
    }
    const JsonValue* frames = r.Get("frames");
    text += StrFormat(" — %zu frames",
                      frames != nullptr ? frames->elements().size() : 0);
    return text + "\n";
  }
  return "";
}

/// Reads the stream at `path` into one aggregate. With `follow`, tails a
/// stream that is still being written: prints each record's live line as
/// it lands and returns once the run_summary has been read.
Result<DumpResult> Load(const std::string& path, bool follow) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  DumpResult out;
  for (std::string line;;) {
    // While the writer is between write() and the newline, the last line
    // is a fragment: following, rewind to its start and re-read it whole
    // on the next poll, so its two halves never parse as two lines.
    const std::istream::pos_type line_start =
        follow ? in.tellg() : std::istream::pos_type(-1);
    if (!std::getline(in, line) || (follow && in.eof())) {
      if (!follow || !out.Of("run_summary").empty()) break;
      in.clear();
      in.seekg(line_start);
      std::this_thread::sleep_for(kFollowPoll);
      continue;
    }
    std::optional<JsonValue> record = obs::ParseJson(line);
    if (!record.has_value()) continue;
    if (follow) {
      if (const std::string text = LiveLine(*record); !text.empty()) {
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
      }
    }
    Ingest(*std::move(record), &out);
  }
  ComputeSelfTimes(&out.phases);
  return out;
}

/// The manifest nests its provenance in build/host blocks, so its fields
/// are looked up at any depth.
void PrintManifest(const JsonValue& manifest) {
  const JsonValue* tool = manifest.Find("tool", kString);
  const JsonValue* describe = manifest.Find("git_describe", kString);
  const JsonValue* hostname = manifest.Find("hostname", kString);
  std::string text = "manifest: " + (tool != nullptr ? tool->str() : "?");
  if (describe != nullptr) text += " " + describe->str();
  if (hostname != nullptr) text += " on " + hostname->str();
  if (const JsonValue* seeds = manifest.Find("seeds", kObject);
      seeds != nullptr && !seeds->members().empty()) {
    std::string list;
    for (const auto& [name, value] : seeds->members()) {
      if (!list.empty()) list += ',';
      list += name + ":" + (value.is(kString) ? value.str() : value.raw());
    }
    text += " (seed " + list + ")";
  }
  std::printf("%s\n", text.c_str());
}

/// Walks the phase tree from the heaviest root, always descending into
/// the child with the largest total. Parentage is "nearest present
/// ancestor", matching ComputeSelfTimes.
void PrintCriticalPath(const std::map<std::string, PhaseAggregate>& phases) {
  std::map<std::string, std::string> parent;
  for (const auto& [path, agg] : phases) {
    std::string ancestor = path;
    for (std::size_t slash = ancestor.rfind('/');
         slash != std::string::npos; slash = ancestor.rfind('/')) {
      ancestor.resize(slash);
      if (phases.count(ancestor) > 0) {
        parent[path] = ancestor;
        break;
      }
    }
  }

  std::string current;
  double best = -1.0;
  for (const auto& [path, agg] : phases) {
    if (parent.count(path) == 0 && agg.total_ns > best) {
      best = agg.total_ns;
      current = path;
    }
  }
  if (current.empty()) return;

  std::string text = current;
  while (true) {
    std::string next;
    double next_best = -1.0;
    for (const auto& [path, agg] : phases) {
      const auto it = parent.find(path);
      if (it != parent.end() && it->second == current &&
          agg.total_ns > next_best) {
        next_best = agg.total_ns;
        next = path;
      }
    }
    if (next.empty()) break;
    text += " > " + next.substr(current.size() + 1);
    current = next;
  }
  std::printf("\ncritical path: %s (%.3f ms)\n", text.c_str(),
              phases.at(current).total_ns * 1e-6);
}

/// Concatenated `counters` of every run_summary, in stream order.
std::vector<std::pair<std::string, double>> SummaryCounters(
    const DumpResult& dump) {
  std::vector<std::pair<std::string, double>> counters;
  for (const JsonValue& summary : dump.Of("run_summary")) {
    const JsonValue* block = summary.Find("counters", kObject);
    if (block == nullptr) continue;
    for (const auto& [name, value] : block->members()) {
      if (value.is(kNumber)) counters.emplace_back(name, value.number());
    }
  }
  return counters;
}

void PrintReport(const DumpResult& dump, const std::string& sort_key,
                 std::int64_t top) {
  if (!dump.Of("manifest").empty()) PrintManifest(dump.Of("manifest").front());

  // Crash forensics lead the report: a dead run's backtrace is the first
  // thing a triager needs, before any timing table.
  for (const JsonValue& crash : dump.Of("crash")) {
    std::printf("\nCRASH: %s (signal %d) on tid %.0f",
                crash.Str("signal_name", "?").c_str(),
                static_cast<int>(crash.Num("signal")), crash.Num("tid"));
    if (const std::string addr = crash.Str("fault_addr"); !addr.empty()) {
      std::printf(" at %s", addr.c_str());
    }
    if (const std::string span = crash.Str("span_path"); !span.empty()) {
      std::printf(" in span %s", span.c_str());
    }
    std::printf("\n");
    if (const JsonValue* frames = crash.Get("frames")) {
      for (std::size_t i = 0; i < frames->elements().size(); ++i) {
        std::printf("  #%zu %s\n", i, frames->elements()[i].str().c_str());
      }
    }
  }
  if (!dump.Of("crash").empty()) std::printf("\n");

  std::vector<std::pair<std::string, PhaseAggregate>> rows(
      dump.phases.begin(), dump.phases.end());
  if (sort_key == "total") {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
  } else if (sort_key == "self") {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
  } else if (sort_key == "calls") {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.calls > b.second.calls;
    });
  }  // "path": keep map order
  if (top > 0 && static_cast<std::size_t>(top) < rows.size()) {
    rows.resize(static_cast<std::size_t>(top));
  }

  double run_wall_ms = -1.0;
  for (const JsonValue& summary : dump.Of("run_summary")) {
    if (const JsonValue* wall = summary.Get("wall_ms", kNumber)) {
      run_wall_ms = wall->number();
    }
  }
  std::size_t width = 5;
  for (const auto& [path, agg] : rows) width = std::max(width, path.size());
  // Without a run summary, attribute against the largest span total.
  double run_ns = run_wall_ms * 1e6;
  if (run_ns <= 0.0) {
    for (const auto& [path, agg] : rows) run_ns = std::max(run_ns, agg.total_ns);
  }

  std::printf("%-*s %8s %11s %10s %10s %10s %6s\n", static_cast<int>(width),
              "phase", "calls", "total ms", "self ms", "cpu ms", "max ms",
              "%run");
  for (const auto& [path, agg] : rows) {
    std::printf("%-*s %8llu %11.3f %10.3f %10.3f %10.3f %6.1f\n",
                static_cast<int>(width), path.c_str(),
                static_cast<unsigned long long>(agg.calls),
                agg.total_ns * 1e-6, agg.self_ns * 1e-6, agg.cpu_ns * 1e-6,
                agg.max_ns * 1e-6,
                run_ns > 0.0 ? 100.0 * agg.total_ns / run_ns : 0.0);
  }

  PrintCriticalPath(dump.phases);

  // Per estimator label: the last record, and the last one flagged final.
  std::map<std::string, std::pair<const JsonValue*, const JsonValue*>>
      estimators;
  for (const JsonValue& record : dump.Of("estimator_progress")) {
    auto& [last, final_record] = estimators[record.Str("label")];
    last = &record;
    if (record.Flag("final")) final_record = &record;
  }
  if (!estimators.empty()) {
    std::printf("\nestimator convergence:\n");
    std::size_t ewidth = 9;
    for (const auto& [label, row] : estimators) {
      ewidth = std::max(ewidth, label.size());
    }
    std::printf("%-*s %10s %12s %12s %9s %12s\n", static_cast<int>(ewidth),
                "estimator", "samples", "mean", "ci half-w", "rel err",
                "samples/s");
    for (const auto& [label, row] : estimators) {
      const auto& [last, final_record] = row;
      std::printf("%-*s %10llu %12.6g %12.4g %9.4f %12.0f%s\n",
                  static_cast<int>(ewidth), label.c_str(),
                  static_cast<unsigned long long>(last->Num("samples")),
                  last->Num("mean"), last->Num("ci_halfwidth"),
                  last->Num("rel_err"), last->Num("rate_per_s"),
                  final_record != nullptr
                      ? (final_record->Flag("stopped_early")
                             ? "  [stopped early]"
                             : "")
                      : "  [in flight]");
    }
  }

  if (!dump.Of("graph_summary").empty()) {
    std::printf("\ngraphs loaded:\n");
    std::size_t gwidth = 6;
    for (const JsonValue& g : dump.Of("graph_summary")) {
      gwidth = std::max(gwidth, g.Str("origin", "?").size());
    }
    std::printf("%-*s %10s %10s %9s %8s %12s %7s\n",
                static_cast<int>(gwidth), "origin", "nodes", "edges",
                "mean deg", "max deg", "sum p", "mean p");
    for (const JsonValue& g : dump.Of("graph_summary")) {
      std::printf("%-*s %10.0f %10.0f %9.2f %8.0f %12.2f %7.3f\n",
                  static_cast<int>(gwidth), g.Str("origin", "?").c_str(),
                  g.Num("nodes"), g.Num("edges"), g.Num("mean_degree"),
                  g.Num("max_degree"), g.Num("sum_p"), g.Num("mean_p"));
    }
  }

  if (!dump.Of("privacy_check").empty()) {
    std::printf("\nprivacy checks:\n");
    std::printf("%10s %10s %10s %9s %10s %10s %10s  %s\n", "k", "eps",
                "eps_hat", "verdict", "exposed", "min bits", "mean bits",
                "adversary");
    for (const JsonValue& row : dump.Of("privacy_check")) {
      std::printf("%10.4g %10.4g %10.4g %9s %10.0f %10.4g %10.4g  %s\n",
                  row.Num("k"), row.Num("eps"), row.Num("eps_hat"),
                  row.Flag("obfuscated") ? "OK" : "VIOLATED",
                  row.Num("not_obfuscated"), row.Num("min_entropy_bits"),
                  row.Num("mean_entropy_bits"),
                  row.Str("adversary", "?").c_str());
    }
  }

  const std::vector<JsonValue>& relevance = dump.Of("relevance_progress");
  if (!relevance.empty()) {
    std::printf("\nreliability relevance:\n");
    for (const JsonValue& row : relevance) {
      const bool final_row = row.Flag("final");
      if (!final_row && &row != &relevance.back()) continue;
      std::printf("  %s: %.0f/%.0f worlds, mean ERR %.4g, max ERR %.4g, "
                  "world mass %.4g, ci ±%.4g (rel %.4g)%s\n",
                  row.Str("label", "?").c_str(), row.Num("worlds"),
                  row.Num("total_worlds"), row.Num("mean_err"),
                  row.Num("max_err"), row.Num("mean_world_mass"),
                  row.Num("ci_halfwidth"), row.Num("rel_err"),
                  final_row ? (row.Flag("stopped_early") ? "  [stopped early]"
                                                         : "")
                            : "  [in flight]");
    }
  }

  if (!dump.Of("sigma_search").empty()) {
    std::printf("\nsigma search:\n");
    std::printf("%-8s %-8s %5s %10s %10s %7s %10s %8s %10s\n", "method",
                "phase", "level", "sigma", "eps_hat", "result", "attempts",
                "bracket", "best sigma");
    for (const JsonValue& row : dump.Of("sigma_search")) {
      const double hi = row.Num("hi");
      std::printf("%-8s %-8s %5.0f %10.4g %10.4g %7s %10.0f %8s %10.4g\n",
                  row.Str("method", "?").c_str(),
                  row.Str("phase", "?").c_str(), row.Num("level"),
                  row.Num("sigma"), row.Num("eps_hat"),
                  row.Flag("success") ? "ok" : "fail", row.Num("attempts"),
                  hi > 0.0 ? StrFormat("%.3g..%.3g", row.Num("lo"), hi).c_str()
                           : "-",
                  row.Num("best_sigma"));
    }
  }

  if (!dump.Of("anonymize_attempt").empty()) {
    // Per-method rollup: the per-level detail already lives in the
    // sigma-search table above.
    std::map<std::string, std::array<double, 4>> by_method;
    for (const JsonValue& row : dump.Of("anonymize_attempt")) {
      auto& agg = by_method[row.Str("method", "?")];
      agg[0] += 1.0;
      agg[1] += row.Flag("success") ? 1.0 : 0.0;
      agg[2] += row.Num("wall_ms");
      agg[3] = std::max(agg[3], row.Num("perturbed_edges"));
    }
    std::printf("\nanonymize attempts:\n");
    for (const auto& [method, agg] : by_method) {
      std::printf("  %s: %.0f attempts (%.0f succeeded), %.0f edges "
                  "perturbed at most, %.1f ms total\n",
                  method.c_str(), agg[0], agg[1], agg[3], agg[2]);
    }
  }

  if (!dump.parallel_regions.empty()) {
    std::printf("\nparallel regions:\n");
    std::size_t pwidth = 6;
    for (const auto& [name, agg] : dump.parallel_regions) {
      pwidth = std::max(pwidth, name.size());
    }
    std::printf("%-*s %8s %7s %11s %8s %6s %9s %11s\n",
                static_cast<int>(pwidth), "region", "regions", "workers",
                "wall ms", "speedup", "eff", "imbalance", "overhead ms");
    for (const auto& [name, agg] : dump.parallel_regions) {
      const double speedup =
          agg.wall_ns > 0.0 ? agg.busy_ns / agg.wall_ns : 1.0;
      const double efficiency =
          agg.workers > 0.0 ? speedup / agg.workers : 1.0;
      std::printf("%-*s %8llu %4.0f/%-2.0f %11.3f %7.2fx %5.1f%% %9.2f "
                  "%11.3f\n",
                  static_cast<int>(pwidth), name.c_str(),
                  static_cast<unsigned long long>(agg.regions), agg.workers,
                  agg.requested, agg.wall_ns * 1e-6, speedup,
                  efficiency * 100.0, agg.max_imbalance,
                  agg.overhead_ns * 1e-6);
    }
  }

  if (!dump.Of("profile").empty()) {
    const JsonValue& last = dump.Of("profile").back();
    std::printf("\nprofile: %.0f samples at %.0f Hz over %.1f ms "
                "(%.0f dropped); rerun with --flame for the span table\n",
                last.Num("samples"), last.Num("hz"), last.Num("duration_ms"),
                last.Num("dropped"));
  }

  const std::vector<std::pair<std::string, double>> counters =
      SummaryCounters(dump);
  if (!counters.empty()) {
    std::printf("\nrun summary counters:\n");
    std::size_t cwidth = 5;
    for (const auto& [name, value] : counters) {
      cwidth = std::max(cwidth, name.size());
    }
    for (const auto& [name, value] : counters) {
      std::printf("  %-*s %15.0f\n", static_cast<int>(cwidth), name.c_str(),
                  value);
    }
  }
  if (!dump.Of("run_summary").empty()) {
    // rusage nests these; look them up at any depth.
    const JsonValue& summary = dump.Of("run_summary").back();
    const JsonValue* user = summary.Find("user_cpu_ms", kNumber);
    const JsonValue* sys = summary.Find("system_cpu_ms", kNumber);
    const JsonValue* rss = summary.Find("max_rss_kb", kNumber);
    if (user != nullptr || rss != nullptr) {
      std::printf("\nprocess rusage: user %.1f ms, system %.1f ms, "
                  "peak rss %.0f kb\n",
                  user != nullptr ? user->number() : 0.0,
                  sys != nullptr ? sys->number() : 0.0,
                  rss != nullptr ? rss->number() : 0.0);
    }
  }
  if (run_wall_ms >= 0.0) {
    std::printf("\nrun wall time: %.3f ms  (%zu spans, %zu progress, "
                "%zu estimator records)\n",
                run_wall_ms, dump.span_records, dump.progress_records,
                dump.estimator_records);
  }
}

/// The --flame view: per-span self-CPU sample table from the last
/// "profile" record (the whole-run capture when --profile was used).
int PrintFlame(const DumpResult& dump, std::int64_t top) {
  if (dump.Of("profile").empty()) {
    std::fprintf(stderr,
                 "no profile records found (rerun the tool with "
                 "--profile=profile.folded)\n");
    return 1;
  }
  const JsonValue& capture = dump.Of("profile").back();
  const double samples_total = capture.Num("samples");
  std::printf("profile: %.0f samples at %.0f Hz over %.1f ms (%.0f dropped)\n",
              samples_total, capture.Num("hz"), capture.Num("duration_ms"),
              capture.Num("dropped"));

  std::vector<std::pair<std::string, double>> rows;
  if (const JsonValue* spans = capture.Get("spans", kObject)) {
    for (const auto& [path, samples] : spans->members()) {
      if (samples.is(kNumber)) rows.emplace_back(path, samples.number());
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (top > 0 && static_cast<std::size_t>(top) < rows.size()) {
    rows.resize(static_cast<std::size_t>(top));
  }
  std::size_t width = 9;
  for (const auto& [path, samples] : rows) {
    width = std::max(width, path.size());
  }
  std::printf("%-*s %10s %6s\n", static_cast<int>(width), "span path",
              "samples", "%cpu");
  for (const auto& [path, samples] : rows) {
    std::printf("%-*s %10.0f %6.1f\n", static_cast<int>(width), path.c_str(),
                samples,
                samples_total > 0.0 ? 100.0 * samples / samples_total : 0.0);
  }
  return 0;
}

/// The --chrome_trace view: spans become complete events on one track
/// per thread, progress records counter tracks.
int WriteChromeTrace(const std::string& path, const std::string& out) {
  const Result<obs::TraceExportStats> stats =
      obs::ExportChromeTrace(path, out);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "wrote %s: %zu spans, %zu progress events%s%s\n",
               out.c_str(), stats->spans, stats->progress,
               stats->saw_manifest ? ", manifest" : ", no manifest",
               stats->skipped_lines > 0 ? " (some lines skipped)" : "");
  if (stats->skipped_lines > 0) {
    std::fprintf(stderr, "warning: skipped %zu non-record lines\n",
                 stats->skipped_lines);
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_obs_dump: per-phase timing table from a metrics JSONL "
      "file");
  flags.AddString("input", "", "metrics JSONL path (or first positional)");
  flags.AddString("sort", "total", "row order: total | self | calls | path");
  flags.AddInt64("top", 0, "show only the top N phases (0 = all)");
  flags.AddBool("flame", false,
                "print the per-span self-CPU sample table from the last "
                "profiler capture instead of the timing report");
  flags.AddBool("follow", false,
                "tail a stream still being written: one line per progress "
                "record as it lands, then the report once the run_summary "
                "arrives");
  flags.AddString("chrome_trace", "",
                  "write Chrome trace-event JSON (chrome://tracing, "
                  "ui.perfetto.dev) to this path instead of the timing "
                  "report");
  if (const std::optional<int> exit_code =
          obs::ParseToolFlags(flags, "chameleon_obs_dump", argc, argv)) {
    return *exit_code;
  }
  std::string path = flags.GetString("input");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional().front();
  }
  if (path.empty()) {
    std::fprintf(stderr, "error: no input file\n%s", flags.Usage().c_str());
    return 2;
  }

  static_cast<void>(obs::InstallCrashHandler());

  const Result<DumpResult> dump = Load(path, flags.GetBool("follow"));
  if (!dump.ok()) {
    std::fprintf(stderr, "error: %s\n", dump.status().ToString().c_str());
    return 1;
  }
  if (const std::string& trace_out = flags.GetString("chrome_trace");
      !trace_out.empty()) {
    return WriteChromeTrace(path, trace_out);
  }
  if (flags.GetBool("flame")) {
    return PrintFlame(*dump, flags.GetInt64("top"));
  }
  // Forward-compat: one debug note per distinct unrecognized type. A
  // stream written by a newer tool still dumps — whatever this build
  // understands is rendered, the rest passes through.
  for (const auto& [type, count] : dump->unknown_types) {
    std::fprintf(stderr,
                 "note: passing through %zu record(s) of unknown type "
                 "\"%s\"\n",
                 count, type.c_str());
  }
  if (dump->typed_records == 0) {
    std::fprintf(stderr,
                 "%s: no chameleon obs records found (is it a metrics "
                 "JSONL?)\n",
                 path.c_str());
    return 1;
  }
  PrintReport(*dump, flags.GetString("sort"), flags.GetInt64("top"));
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
