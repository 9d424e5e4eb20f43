#include "chameleon/util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace chameleon {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    // +1: vsnprintf writes the terminating NUL; std::string guarantees
    // data()[size()] is addressable.
    std::vsnprintf(out.data(), static_cast<std::size_t>(needed) + 1, format,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> SplitTokens(std::string_view text,
                                     std::string_view delims) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find_first_of(delims, start);
    const std::size_t stop = (end == std::string_view::npos) ? text.size() : end;
    if (stop > start) tokens.emplace_back(text.substr(start, stop - start));
    start = stop + 1;
  }
  return tokens;
}

namespace {

/// std::isspace in the "C" locale, without the call: ' ', \t \n \v \f \r.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && IsAsciiSpace(text[begin])) ++begin;
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool HasPrefix(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

Result<std::int64_t> ParseInt(std::string_view text) {
  const std::string_view token = StripWhitespace(text);
  if (token.empty()) return Status::InvalidArgument("empty integer token");
  // strtoll's grammar: an optional sign, then decimal digits. from_chars
  // takes no '+', so step over one here; "+-1" still fails below.
  const char* first = token.data();
  const char* const last = first + token.size();
  if (*first == '+' && last - first > 1 && first[1] != '-') ++first;
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: " + std::string(token));
  }
  if (ec != std::errc() || end != last) {
    return Status::InvalidArgument("not an integer: " + std::string(token));
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string_view token = StripWhitespace(text);
  if (token.empty()) return Status::InvalidArgument("empty number token");
  // strtod's grammar: an optional sign, then a decimal or 0x-prefixed hex
  // float, inf/infinity or nan/nan(chars), case-insensitively. from_chars
  // takes neither '+' nor the 0x prefix, so both are stripped here; the
  // sign goes back on after the parse (NaN keeps it too, as with strtod).
  const char* first = token.data();
  const char* const last = first + token.size();
  const bool negative = *first == '-';
  if (*first == '+' || negative) ++first;
  auto is_hex = [&](const char* c) {
    return c < last && std::isxdigit(static_cast<unsigned char>(*c)) != 0;
  };
  std::chars_format format = std::chars_format::general;
  // strtod reads "0x" as hex only when a hex digit follows, possibly after
  // the point; otherwise it reads the "0" alone, and the 'x' is trailing
  // junk here.
  if (last - first > 2 && first[0] == '0' &&
      (first[1] == 'x' || first[1] == 'X') &&
      (is_hex(first + 2) || (first[2] == '.' && is_hex(first + 3)))) {
    first += 2;
    format = std::chars_format::hex;
  }
  double value = 0.0;
  std::from_chars_result parsed{first, std::errc::invalid_argument};
  // A second sign ("+-1", "--1") is no number; from_chars would take '-'.
  if (first < last && *first != '-') {
    parsed = std::from_chars(first, last, value, format);
  }
  // Overflow and underflow to zero are out of range, as strtod's ERANGE;
  // a subnormal result is a value like any other.
  if (parsed.ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("number out of range: " + std::string(token));
  }
  if (parsed.ec != std::errc() || parsed.ptr != last) {
    return Status::InvalidArgument("not a number: " + std::string(token));
  }
  return negative ? -value : value;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c) & 0xffu);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace chameleon
