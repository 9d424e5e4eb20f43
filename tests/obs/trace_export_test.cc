#include "chameleon/obs/trace_export.h"

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON validator (no external deps). Accepts exactly the
// RFC 8259 grammar the Chrome trace loader requires; returns false on any
// trailing garbage.
// ---------------------------------------------------------------------------
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    text_[pos_ + static_cast<std::size_t>(i)]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::vector<std::string> SampleJsonl() {
  return {
      R"({"type":"manifest","t_ms":1000,"tool":"unit_test",)"
      R"("build":{"version":"1.0.0","git_sha":"abc123",)"
      R"("git_describe":"v1-g-abc"},"host":{"hostname":"box","pid":42}})",
      R"({"type":"span","path":"load/parse","tid":1,"t_ms":1000,)"
      R"("mono_ns":5000000,"dur_ns":1500000,"cpu_ns":1400000,)"
      R"("max_rss_kb":2048,"minflt":3,"majflt":0,"allocs":10,)"
      R"("alloc_bytes":4096,"counters":{"edges":17}})",
      R"({"type":"span","path":"load","tid":1,"t_ms":1000,)"
      R"("mono_ns":4000000,"dur_ns":3000000})",
      R"({"type":"span","path":"solve","tid":2,"t_ms":1001,)"
      R"("mono_ns":8000000,"dur_ns":2000000})",
      R"({"type":"snapshot","label":"load","t_ms":1001,"metrics":{}})",
      R"({"type":"progress","label":"worlds","t_ms":1002,"done":500,)"
      R"("total":1000})",
      R"({"type":"run_summary","t_ms":1003,"wall_ms":3.0,"metrics":{}})",
  };
}

TEST(TraceExportTest, OutputIsStrictlyValidJson) {
  TraceExportStats stats;
  const std::string trace = ChromeTraceFromJsonlLines(SampleJsonl(), &stats);
  JsonValidator validator(trace);
  EXPECT_TRUE(validator.Valid()) << trace;
}

TEST(TraceExportTest, CountsRecordTypes) {
  TraceExportStats stats;
  ChromeTraceFromJsonlLines(SampleJsonl(), &stats);
  EXPECT_EQ(stats.spans, 3u);
  EXPECT_EQ(stats.progress, 1u);
  EXPECT_TRUE(stats.saw_manifest);
  EXPECT_EQ(stats.skipped_lines, 0u);
}

TEST(TraceExportTest, EmitsCompleteEventsWithMicrosecondTimes) {
  const std::string trace = ChromeTraceFromJsonlLines(SampleJsonl(), nullptr);
  // dur_ns 1500000 -> 1500 us on the "X" event for load/parse.
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":1500.000"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":5000.000"), std::string::npos);
  // Span name is the last path segment; the full path rides in args.
  EXPECT_NE(trace.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(trace.find("\"path\":\"load/parse\""), std::string::npos);
  // Resource args and verbatim counters survive.
  EXPECT_NE(trace.find("\"cpu_ns\":1400000"), std::string::npos);
  EXPECT_NE(trace.find("\"counters\":{\"edges\":17}"), std::string::npos);
}

TEST(TraceExportTest, ThreadsGetSeparateTracksWithMetadata) {
  const std::string trace = ChromeTraceFromJsonlLines(SampleJsonl(), nullptr);
  EXPECT_NE(trace.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"worker 2\""), std::string::npos);
}

TEST(TraceExportTest, ManifestFeedsProcessNameAndOtherData) {
  const std::string trace = ChromeTraceFromJsonlLines(SampleJsonl(), nullptr);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("unit_test"), std::string::npos);
  EXPECT_NE(trace.find("\"git_sha\":\"abc123\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TraceExportTest, WallOnlyRecordsLandOnTheMonotonicTimeline) {
  const std::string trace = ChromeTraceFromJsonlLines(SampleJsonl(), nullptr);
  // The offset comes from the first span with both clocks (load/parse):
  // mono 5000000 ns = 5000 us at wall 1000 ms -> offset = -995000 us.
  // The progress record at wall 1002 ms maps to 1002000 - 995000 = 7000 us.
  EXPECT_NE(trace.find("\"name\":\"worlds\",\"cat\":\"progress\",\"ph\":\"C\","
                       "\"ts\":7000.000"),
            std::string::npos)
      << trace;
  // An older stream's snapshot record adds no event.
  EXPECT_EQ(trace.find("snapshot"), std::string::npos);
}

TEST(TraceExportTest, SkipsForeignLinesButStaysValid) {
  std::vector<std::string> lines = SampleJsonl();
  lines.insert(lines.begin(), "# a comment the sink never wrote");
  lines.push_back("not json at all");
  TraceExportStats stats;
  const std::string trace = ChromeTraceFromJsonlLines(lines, &stats);
  EXPECT_EQ(stats.skipped_lines, 2u);
  JsonValidator validator(trace);
  EXPECT_TRUE(validator.Valid());
}

TEST(TraceExportTest, EmptyInputYieldsValidEmptyTrace) {
  TraceExportStats stats;
  const std::string trace = ChromeTraceFromJsonlLines({}, &stats);
  EXPECT_EQ(stats.spans, 0u);
  JsonValidator validator(trace);
  EXPECT_TRUE(validator.Valid()) << trace;
}

}  // namespace
}  // namespace chameleon::obs
