#include "chameleon/obs/sink.h"

#include "chameleon/obs/record.h"

namespace chameleon::obs {

Result<std::unique_ptr<JsonlFileSink>> JsonlFileSink::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open metrics sink: " + path);
  }
  return std::unique_ptr<JsonlFileSink>(new JsonlFileSink(file, path));
}

JsonlFileSink::JsonlFileSink(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

JsonlFileSink::~JsonlFileSink() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlFileSink::Write(std::string_view line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

void JsonlFileSink::Flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

std::optional<std::string> JsonlStringField(std::string_view line,
                                            std::string_view key) {
  const std::optional<JsonValue> record = ParseJson(line);
  const JsonValue* value =
      record.has_value() ? record->Find(key, JsonValue::Kind::kString)
                         : nullptr;
  if (value == nullptr) return std::nullopt;
  return value->str();
}

std::optional<double> JsonlNumberField(std::string_view line,
                                       std::string_view key) {
  const std::optional<JsonValue> record = ParseJson(line);
  const JsonValue* value =
      record.has_value() ? record->Find(key, JsonValue::Kind::kNumber)
                         : nullptr;
  if (value == nullptr) return std::nullopt;
  return value->number();
}

}  // namespace chameleon::obs
