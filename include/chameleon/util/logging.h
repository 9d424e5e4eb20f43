#ifndef CHAMELEON_UTIL_LOGGING_H_
#define CHAMELEON_UTIL_LOGGING_H_

#include <sstream>
#include <string_view>

/// \file logging.h
/// Minimal stderr logging and CHECK macros. Library code uses CH_LOG for
/// operational messages (progress heartbeats, sink lifecycle) and CH_CHECK
/// for invariants whose violation is a bug, never for user-input errors
/// (those return Status).

namespace chameleon {

enum class LogLevel { kInfo, kWarning, kError };

namespace internal {

/// One log statement. Streams into an internal buffer; the destructor
/// writes a single line "[L HH:MM:SS.mmm file:line] msg" to stderr.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
  LogLevel level_;
  const char* file_;
  int line_;
};

[[noreturn]] void FailCheck(const char* condition, const char* file, int line,
                            std::string_view extra = {});

}  // namespace internal
}  // namespace chameleon

#define CH_LOG(severity)                                      \
  ::chameleon::internal::LogMessage(                          \
      ::chameleon::LogLevel::k##severity, __FILE__, __LINE__)

/// Fatal invariant check, active in all build types.
#define CH_CHECK(condition)                                            \
  (static_cast<bool>(condition)                                        \
       ? static_cast<void>(0)                                          \
       : ::chameleon::internal::FailCheck(#condition, __FILE__, __LINE__))

#endif  // CHAMELEON_UTIL_LOGGING_H_
