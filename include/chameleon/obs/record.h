#ifndef CHAMELEON_OBS_RECORD_H_
#define CHAMELEON_OBS_RECORD_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file record.h
/// The one encoder and the one decoder of the JSONL record stream. Every
/// record is built with a Record (strings escaped by construction, every
/// double written by one rule) and every reader parses whole lines with
/// ParseJson. The record catalogue — types, fields, kinds — and the
/// writer's string and number rules are in DESIGN.md §7.

namespace chameleon::obs {

/// Builds one JSON object as text. Member calls (with a key) append to
/// the innermost open object, element calls (without) to the innermost
/// open array; Object/Array open a nested container that End closes.
class JsonWriter {
 public:
  JsonWriter() : out_("{"), open_("}") {}

  JsonWriter& Str(std::string_view key, std::string_view value);
  JsonWriter& Num(std::string_view key, double value);
  JsonWriter& Bool(std::string_view key, bool value);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& Int(std::string_view key, T value) {
    Key(key);
    AppendInt(value);
    return *this;
  }
  JsonWriter& Object(std::string_view key);
  JsonWriter& Array(std::string_view key);

  JsonWriter& Str(std::string_view value);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& Int(T value) {
    Separator();
    AppendInt(value);
    return *this;
  }
  JsonWriter& Object();

  /// Closes the innermost open container.
  JsonWriter& End();
  /// Closes every open container and hands over the text.
  std::string Finish();

 private:
  void Separator();
  void Key(std::string_view key);
  JsonWriter& Open(char bracket, char closer);
  void AppendString(std::string_view text);
  template <typename T>
  void AppendInt(T value) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out_.append(buffer, result.ptr);
  }

  std::string out_;
  std::string open_;  ///< closing brackets of the open containers
  bool first_ = true;  ///< innermost container has no member yet
};

/// A record line: opens with `"type"` and the wall-clock `"t_ms"`.
class Record : public JsonWriter {
 public:
  /// Stamps the current wall-clock time.
  explicit Record(std::string_view type);
  /// Stamps `t_ms`, e.g. a span's start time.
  Record(std::string_view type, std::uint64_t t_ms);
};

/// One parsed JSON value. Objects keep member order, strings are fully
/// decoded, and every value keeps its exact source text in raw(), so
/// integers beyond 2^53 and verbatim sub-objects re-render unchanged.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  using Member = std::pair<std::string, JsonValue>;

  bool is(Kind kind) const { return kind_ == kind; }
  const std::string& raw() const { return raw_; }
  double number() const { return number_; }
  const std::string& str() const { return str_; }
  const std::vector<JsonValue>& elements() const { return elements_; }
  const std::vector<Member>& members() const { return members_; }

  /// This object's first member named `key`; null when there is none
  /// (or, given `kind`, when it is of another kind).
  const JsonValue* Get(std::string_view key) const;
  const JsonValue* Get(std::string_view key, Kind kind) const;
  /// The first member named `key` at any depth, in document order (null
  /// when there is none, or, given `kind`, when that one is of another
  /// kind).
  const JsonValue* Find(std::string_view key) const;
  const JsonValue* Find(std::string_view key, Kind kind) const;

  /// Member `key` as a number / string; `fallback` when it is absent or
  /// of another kind.
  double Num(std::string_view key, double fallback = 0.0) const;
  std::string Str(std::string_view key, std::string_view fallback = "") const;
  /// Member `key` is the JSON literal true.
  bool Flag(std::string_view key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string raw_;
  std::string str_;
  std::vector<JsonValue> elements_;
  std::vector<Member> members_;
};

/// Parses one whole JSON document (RFC 8259). nullopt when `text` is not
/// exactly one JSON value, optionally surrounded by whitespace.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_RECORD_H_
