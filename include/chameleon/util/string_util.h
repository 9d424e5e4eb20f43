#ifndef CHAMELEON_UTIL_STRING_UTIL_H_
#define CHAMELEON_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/util/status.h"

/// \file string_util.h
/// Small string helpers shared by flags parsing, I/O, and the obs JSONL
/// sink. No locale dependence anywhere: numbers always parse/print in the
/// "C" locale.

namespace chameleon {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `text` on any character in `delims`, dropping empty tokens.
std::vector<std::string> SplitTokens(std::string_view text,
                                     std::string_view delims);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

bool HasPrefix(std::string_view text, std::string_view prefix);

/// Strict integer / double parsing of the *entire* token, after
/// StripWhitespace. Built on std::from_chars: no allocation unless the
/// token is rejected. The grammar is strtoll's (base 10) and strtod's: a
/// leading '+' or '-', and for doubles hex floats ("0x1p-1"), inf and
/// nan. InvalidArgument for an empty or malformed token (a NUL byte is
/// malformed); OutOfRange when the value overflows, or for a double when
/// it underflows to zero. Subnormal doubles parse as values.
Result<std::int64_t> ParseInt(std::string_view text);
Result<double> ParseDouble(std::string_view text);

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Does not add surrounding quotes.
std::string JsonEscape(std::string_view text);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_STRING_UTIL_H_
