#include "chameleon/util/logging.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

namespace chameleon {
namespace {

char LevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarning:
      return 'W';
    case LogLevel::kError:
      return 'E';
  }
  return '?';
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm_buf{};
  localtime_r(&secs, &tm_buf);
  char stamp[16];
  std::snprintf(stamp, sizeof(stamp), "%02d:%02d:%02d.%03d", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec, static_cast<int>(millis));
  // One fprintf so concurrent log lines do not interleave mid-line.
  std::fprintf(stderr, "[%c %s %s:%d] %s\n", LevelLetter(level_), stamp,
               Basename(file_), line_, stream_.str().c_str());
}

void FailCheck(const char* condition, const char* file, int line,
               std::string_view extra) {
  std::fprintf(stderr, "[F %s:%d] CHECK failed: %s %.*s\n", Basename(file),
               line, condition, static_cast<int>(extra.size()), extra.data());
  std::abort();
}

}  // namespace internal
}  // namespace chameleon
