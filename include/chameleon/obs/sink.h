#ifndef CHAMELEON_OBS_SINK_H_
#define CHAMELEON_OBS_SINK_H_

#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/util/common.h"
#include "chameleon/util/status.h"

/// \file sink.h
/// JSONL record sinks. Every record is one JSON object per line with a
/// "type" field, built with obs::Record (record.h). The record catalogue
/// — every type, its fields and their JSON kinds — is the table in
/// DESIGN.md §7. Writers format the line; sinks only append and are
/// thread-safe.

namespace chameleon::obs {

class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Appends one record. `line` must be a complete JSON object without a
  /// trailing newline.
  virtual void Write(std::string_view line) = 0;
  virtual void Flush() {}
};

/// Buffered, mutex-guarded JSONL file sink.
class JsonlFileSink : public RecordSink {
 public:
  static Result<std::unique_ptr<JsonlFileSink>> Open(const std::string& path);
  ~JsonlFileSink() override;
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(JsonlFileSink);

  void Write(std::string_view line) override;
  void Flush() override;

  const std::string& path() const { return path_; }

 private:
  JsonlFileSink(std::FILE* file, std::string path);

  std::mutex mu_;
  std::FILE* file_;
  std::string path_;
};

/// In-memory sink for tests.
class MemorySink : public RecordSink {
 public:
  void Write(std::string_view line) override {
    const std::lock_guard<std::mutex> lock(mu_);
    lines_.emplace_back(line);
  }

  std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// The first value named `key` at any depth of the JSON document `line`,
/// in document order, when it is a string / number (see
/// JsonValue::Find). nullopt when `line` does not parse, `key` is absent,
/// or its first value is of another kind.
std::optional<std::string> JsonlStringField(std::string_view line,
                                            std::string_view key);
std::optional<double> JsonlNumberField(std::string_view line,
                                       std::string_view key);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_SINK_H_
