#include "chameleon/obs/record.h"

#include <cmath>
#include <cstdlib>

#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {

void JsonWriter::Separator() {
  if (!first_) out_ += ',';
  first_ = false;
}

void JsonWriter::Key(std::string_view key) {
  Separator();
  AppendString(key);
  out_ += ':';
}

void JsonWriter::AppendString(std::string_view text) {
  out_ += '"';
  out_ += JsonEscape(text);
  out_ += '"';
}

JsonWriter& JsonWriter::Str(std::string_view key, std::string_view value) {
  Key(key);
  AppendString(value);
  return *this;
}

JsonWriter& JsonWriter::Num(std::string_view key, double value) {
  Key(key);
  // JSON has no NaN or infinity; such a value is written as null.
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out_.append(buffer, result.ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Object(std::string_view key) {
  Key(key);
  return Open('{', '}');
}

JsonWriter& JsonWriter::Array(std::string_view key) {
  Key(key);
  return Open('[', ']');
}

JsonWriter& JsonWriter::Str(std::string_view value) {
  Separator();
  AppendString(value);
  return *this;
}

JsonWriter& JsonWriter::Object() {
  Separator();
  return Open('{', '}');
}

JsonWriter& JsonWriter::Open(char bracket, char closer) {
  out_ += bracket;
  open_ += closer;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::End() {
  if (!open_.empty()) {
    out_ += open_.back();
    open_.pop_back();
  }
  first_ = false;
  return *this;
}

std::string JsonWriter::Finish() {
  while (!open_.empty()) End();
  return std::move(out_);
}

Record::Record(std::string_view type) : Record(type, WallUnixMillis()) {}

Record::Record(std::string_view type, std::uint64_t t_ms) {
  Str("type", type);
  Int("t_ms", t_ms);
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue* JsonValue::Get(std::string_view key, Kind kind) const {
  const JsonValue* value = Get(key);
  return value != nullptr && value->is(kind) ? value : nullptr;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
    if (const JsonValue* hit = value.Find(key)) return hit;
  }
  for (const JsonValue& element : elements_) {
    if (const JsonValue* hit = element.Find(key)) return hit;
  }
  return nullptr;
}

const JsonValue* JsonValue::Find(std::string_view key, Kind kind) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is(kind) ? value : nullptr;
}

double JsonValue::Num(std::string_view key, double fallback) const {
  const JsonValue* value = Get(key, Kind::kNumber);
  return value != nullptr ? value->number_ : fallback;
}

std::string JsonValue::Str(std::string_view key,
                           std::string_view fallback) const {
  const JsonValue* value = Get(key, Kind::kString);
  return std::string(value != nullptr ? std::string_view(value->str_)
                                      : fallback);
}

bool JsonValue::Flag(std::string_view key) const {
  const JsonValue* value = Get(key, Kind::kBool);
  return value != nullptr && value->bool_;
}

/// Recursive-descent parser over one document. Nesting is capped so a
/// hostile line cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Document(JsonValue* out) {
    SkipSpace();
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return false;
    const std::size_t begin = pos_;
    bool ok = false;
    switch (text_[pos_]) {
      case '{':
        ok = ObjectBody(out, depth);
        break;
      case '[':
        ok = ArrayBody(out, depth);
        break;
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        ok = String(&out->str_);
        break;
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        ok = Literal("true");
        break;
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        ok = Literal("false");
        break;
      case 'n':
        ok = Literal("null");
        break;
      default:
        ok = Number(out);
    }
    if (ok) out->raw_.assign(text_.substr(begin, pos_ - begin));
    return ok;
  }

  bool ObjectBody(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !String(&key)) {
        return false;
      }
      SkipSpace();
      if (!Consume(':')) return false;
      SkipSpace();
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (!Consume(',')) return Consume('}');
    }
  }

  bool ArrayBody(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      SkipSpace();
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->elements_.push_back(std::move(value));
      SkipSpace();
      if (!Consume(',')) return Consume(']');
    }
  }

  /// Decodes the string literal at pos_ (which holds its opening quote).
  bool String(std::string* out) {
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      if (escape != 'u') {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        const std::size_t at = kEscapes.find(escape);
        if (at == std::string_view::npos) return false;
        *out += kDecoded[at];
        continue;
      }
      std::uint32_t code = 0;
      if (!Hex4(&code)) return false;
      // A surrogate pair spells one code point beyond the BMP.
      if (code >= 0xd800 && code < 0xdc00 && text_.substr(pos_, 2) == "\\u") {
        const std::size_t save = pos_;
        pos_ += 2;
        std::uint32_t low = 0;
        if (Hex4(&low) && low >= 0xdc00 && low < 0xe000) {
          code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        } else {
          pos_ = save;
        }
      }
      AppendUtf8(code, out);
    }
    return false;
  }

  bool Hex4(std::uint32_t* code) {
    if (text_.size() - pos_ < 4) return false;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
      *code = (*code << 4) | digit;
    }
    return true;
  }

  static void AppendUtf8(std::uint32_t code, std::string* out) {
    const auto byte = [out](std::uint32_t bits) {
      *out += static_cast<char>(bits);
    };
    if (code < 0x80) {
      byte(code);
    } else if (code < 0x800) {
      byte(0xc0 | (code >> 6));
      byte(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      byte(0xe0 | (code >> 12));
      byte(0x80 | ((code >> 6) & 0x3f));
      byte(0x80 | (code & 0x3f));
    } else {
      byte(0xf0 | (code >> 18));
      byte(0x80 | ((code >> 12) & 0x3f));
      byte(0x80 | ((code >> 6) & 0x3f));
      byte(0x80 | (code & 0x3f));
    }
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(JsonValue* out) {
    const std::size_t begin = pos_;
    Consume('-');
    if (!Consume('0')) {
      if (pos_ >= text_.size() || text_[pos_] < '1' || text_[pos_] > '9') {
        return false;
      }
      Digits();
    }
    if (Consume('.') && Digits() == 0) return false;
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (Digits() == 0) return false;
    }
    out->kind_ = JsonValue::Kind::kNumber;
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    if (std::from_chars(first, last, out->number_).ec != std::errc()) {
      // Beyond double's range: strtod rounds to ±HUGE_VAL or 0 instead.
      out->number_ = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return true;
  }

  std::size_t Digits() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - begin;
  }

  bool Literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool Consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::string_view(" \t\n\r").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> ParseJson(std::string_view text) {
  JsonValue value;
  if (!JsonParser(text).Document(&value)) return std::nullopt;
  return value;
}

}  // namespace chameleon::obs
