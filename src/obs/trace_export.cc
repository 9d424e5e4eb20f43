#include "chameleon/obs/trace_export.h"

#include <fstream>
#include <set>

#include "chameleon/obs/record.h"
#include "chameleon/util/string_util.h"

namespace chameleon::obs {
namespace {

std::string LastPathSegment(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The record's "type", or "" when the line is not a typed record.
std::string RecordType(const std::optional<JsonValue>& record) {
  return record.has_value() ? record->Str("type") : std::string();
}

}  // namespace

std::string ChromeTraceFromJsonlLines(const std::vector<std::string>& lines,
                                      TraceExportStats* stats_out) {
  TraceExportStats stats;
  std::vector<std::optional<JsonValue>> records;
  records.reserve(lines.size());
  for (const std::string& line : lines) records.push_back(ParseJson(line));

  // Pass 1: wall-to-monotonic offset (µs) from the first span carrying
  // both clocks, so wall-only progress records land on the same
  // timeline as the monotonic span timestamps.
  double wall_offset_us = 0.0;
  bool have_offset = false;
  const JsonValue* manifest = nullptr;
  for (const std::optional<JsonValue>& record : records) {
    const std::string type = RecordType(record);
    if (!have_offset && type == "span") {
      const JsonValue* mono = record->Get("mono_ns");
      const JsonValue* wall = record->Get("t_ms");
      if (mono != nullptr && mono->is(JsonValue::Kind::kNumber) &&
          wall != nullptr && wall->is(JsonValue::Kind::kNumber)) {
        wall_offset_us = mono->number() / 1e3 - wall->number() * 1e3;
        have_offset = true;
      }
    }
    if (manifest == nullptr && type == "manifest") manifest = &*record;
  }
  const auto wall_to_ts = [&](double wall_ms) {
    return wall_ms * 1e3 + wall_offset_us;
  };

  std::string events;
  std::set<unsigned> tids;
  const auto append_event = [&events](std::string&& event) {
    if (!events.empty()) events += ",\n";
    events += event;
  };

  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string type = RecordType(records[i]);
    if (type.empty()) {
      if (!StripWhitespace(lines[i]).empty()) ++stats.skipped_lines;
      continue;
    }
    const JsonValue& record = *records[i];
    if (type == "span") {
      const JsonValue* path = record.Get("path");
      const JsonValue* dur = record.Get("dur_ns");
      if (path == nullptr || !path->is(JsonValue::Kind::kString) ||
          dur == nullptr || !dur->is(JsonValue::Kind::kNumber)) {
        ++stats.skipped_lines;
        continue;
      }
      ++stats.spans;
      const JsonValue* mono = record.Get("mono_ns");
      const double ts_us = mono != nullptr && mono->is(JsonValue::Kind::kNumber)
                               ? mono->number() / 1e3
                               : wall_to_ts(record.Num("t_ms"));
      const auto tid = static_cast<unsigned>(record.Num("tid"));
      tids.insert(tid);

      std::string args = StrFormat("{\"path\":\"%s\"",
                                   JsonEscape(path->str()).c_str());
      for (const std::string_view key :
           {"cpu_ns", "max_rss_kb", "minflt", "majflt", "allocs",
            "alloc_bytes"}) {
        const JsonValue* value = record.Get(key);
        if (value == nullptr || !value->is(JsonValue::Kind::kNumber)) continue;
        args += StrFormat(",\"%s\":%.0f", std::string(key).c_str(),
                          value->number());
      }
      if (const JsonValue* counters = record.Get("counters");
          counters != nullptr && counters->is(JsonValue::Kind::kObject)) {
        args += ",\"counters\":" + counters->raw();
      }
      args += '}';

      append_event(StrFormat(
          "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":%s}",
          JsonEscape(LastPathSegment(path->str())).c_str(), ts_us,
          dur->number() / 1e3, tid, args.c_str()));
    } else if (type == "progress") {
      ++stats.progress;
      append_event(StrFormat(
          "{\"name\":\"%s\",\"cat\":\"progress\",\"ph\":\"C\",\"ts\":%.3f,"
          "\"pid\":1,\"args\":{\"done\":%.0f}}",
          JsonEscape(record.Str("label")).c_str(),
          wall_to_ts(record.Num("t_ms")), record.Num("done")));
    } else if (type == "manifest") {
      stats.saw_manifest = true;
    }
    // run_summary's counters stay in the JSONL; obs_dump renders them.
  }

  // Metadata: process name from the manifest, one named track per tid.
  // Manifest fields are looked up at any depth (build/host nest them).
  const auto manifest_field = [manifest](std::string_view key) {
    return manifest != nullptr ? manifest->Find(key, JsonValue::Kind::kString)
                               : nullptr;
  };
  std::string process_name = "chameleon";
  if (const JsonValue* tool = manifest_field("tool")) {
    process_name = "chameleon " + tool->str();
  }
  if (const JsonValue* describe = manifest_field("git_describe")) {
    process_name += " (" + describe->str() + ")";
  }
  append_event(StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"%s\"}}",
      JsonEscape(process_name).c_str()));
  for (const unsigned tid : tids) {
    append_event(StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        tid, tid <= 1 ? "main" : StrFormat("worker %u", tid).c_str()));
  }

  std::string other_data = "{";
  for (const std::string_view key :
       {"tool", "git_sha", "git_describe", "hostname"}) {
    const JsonValue* value = manifest_field(key);
    if (value == nullptr) continue;
    if (other_data.back() != '{') other_data += ',';
    other_data += StrFormat("\"%s\":\"%s\"", std::string(key).c_str(),
                            JsonEscape(value->str()).c_str());
  }
  other_data += '}';

  std::string out = "{\"traceEvents\":[\n";
  out += events;
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += other_data;
  out += "}\n";
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

Result<TraceExportStats> ExportChromeTrace(const std::string& input_jsonl,
                                           const std::string& output_json) {
  std::ifstream in(input_jsonl);
  if (!in) return Status::IoError("cannot open " + input_jsonl);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(std::move(line));
  }

  TraceExportStats stats;
  const std::string trace = ChromeTraceFromJsonlLines(lines, &stats);
  if (stats.spans == 0) {
    return Status::NotFound("no span records in " + input_jsonl +
                            " (is it a chameleon metrics JSONL?)");
  }

  std::ofstream out(output_json);
  if (!out) return Status::IoError("cannot open " + output_json);
  out << trace;
  if (!out.good()) return Status::IoError("write failed: " + output_json);
  return stats;
}

}  // namespace chameleon::obs
