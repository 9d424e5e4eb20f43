#include "common.h"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "chameleon/util/string_util.h"

namespace chameleon::bench_e2e {

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) {
    q.q1 = q.q2 = q.q3 = std::numeric_limits<double>::quiet_NaN();
    return q;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long long>(values.size());
  if (n == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // position i*m/4, clamped to [1, n-1], interpolated in quarters.
  double cuts[3];
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * (n + 1) / 4;
    j = std::clamp(j, 1LL, n - 1);
    const long long delta = i * (n + 1) - j * 4;
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(j)];
    cuts[i - 1] = (lo * static_cast<double>(4 - delta) +
                   hi * static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.q2 = cuts[1];
  q.q3 = cuts[2];
  return q;
}

namespace {

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void Sha256Block(std::uint32_t state[8], const unsigned char* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

std::string Sha256Hex(std::string_view data) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t full_blocks = data.size() / 64;
  for (std::size_t i = 0; i < full_blocks; ++i) {
    Sha256Block(state, bytes + 64 * i);
  }
  // Padding: 0x80, zeros, then the bit length big-endian in the last 8
  // bytes of a one- or two-block tail.
  unsigned char tail[128] = {};
  const std::size_t rest = data.size() % 64;
  std::memcpy(tail, bytes + 64 * full_blocks, rest);
  tail[rest] = 0x80;
  const std::size_t tail_len = rest + 9 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<unsigned char>(bit_len >> (8 * i));
  }
  Sha256Block(state, tail);
  if (tail_len == 128) Sha256Block(state, tail + 64);

  std::string hex;
  hex.reserve(64);
  for (const std::uint32_t word : state) hex += StrFormat("%08x", word);
  return hex;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  std::string data;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::IoError("read failed: " + path);
  return data;
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot open " + tmp);
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), file);
  const int close_rc = std::fclose(file);
  if (written != data.size() || close_rc != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

namespace {

/// fork + exec + wait4. `out_fd` >= 0 becomes the child's stdout and
/// stderr.
Result<ChildUsage> SpawnAndWait(char* const* argv, int out_fd) {
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child dies
    // with its parent, so a killed run leaves no process behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (out_fd >= 0) {
      dup2(out_fd, STDOUT_FILENO);
      dup2(out_fd, STDERR_FILENO);
    }
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  struct rusage ru = {};
  pid_t waited = -1;
  do {
    waited = wait4(pid, &status, 0, &ru);
  } while (waited < 0 && errno == EINTR);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  if (waited != pid) return Status::Internal("wait4 failed");

  ChildUsage usage;
  if (WIFEXITED(status)) {
    usage.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    usage.signal = WTERMSIG(status);
  }
  usage.wall_s = wall_s;
  usage.cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  usage.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return usage;
}

}  // namespace

Result<ChildUsage> RunChild(const std::vector<std::string>& argv,
                            const std::string& log_path) {
  if (argv.empty()) return Status::InvalidArgument("empty child argv");
  // Linux folds the pre-exec address space's peak into the exec'd
  // program's ru_maxrss, so a program forked from this (large) process
  // would report at least this process's RSS. A fresh exec of this
  // binary is small; it starts the program and reports its usage.
  const std::string usage_path = log_path + ".usage";
  std::vector<std::string> launcher = {"/proc/self/exe",
                                       std::string(kLaunchFlag), usage_path};
  launcher.insert(launcher.end(), argv.begin(), argv.end());
  std::vector<char*> args;
  for (const std::string& arg : launcher) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  std::remove(usage_path.c_str());
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::IoError("cannot open " + log_path);
  const Result<ChildUsage> launched = SpawnAndWait(args.data(), log_fd);
  close(log_fd);
  if (!launched.ok()) return launched.status();
  if (launched->exit_code != 0) {
    return Status::Internal("launcher failed, log " + log_path);
  }
  Result<std::string> text = ReadFile(usage_path);
  if (!text.ok()) return text.status();
  ChildUsage usage;
  if (std::sscanf(text->c_str(), "%d %d %lf %lf %lf", &usage.exit_code,
                  &usage.signal, &usage.wall_s, &usage.cpu_s,
                  &usage.peak_rss_mb) != 5) {
    return Status::Internal("malformed " + usage_path);
  }
  return usage;
}

int LaunchMain(int argc, char** argv) {
  if (argc < 4 || std::string_view(argv[1]) != kLaunchFlag) return 2;
  const Result<ChildUsage> usage = SpawnAndWait(argv + 3, -1);
  if (!usage.ok()) {
    std::fprintf(stderr, "launch: %s\n", usage.status().ToString().c_str());
    return 1;
  }
  const std::string text =
      StrFormat("%d %d %.9f %.9f %.17g\n", usage->exit_code, usage->signal,
                usage->wall_s, usage->cpu_s, usage->peak_rss_mb);
  return WriteFileAtomic(argv[2], text).ok() ? 0 : 1;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Status ParseRoot(std::map<std::string, JsonMember>* members) {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{' at the root");
    SkipSpace();
    if (!Consume('}')) {
      while (true) {
        SkipSpace();
        std::string key;
        CHAMELEON_RETURN_IF_ERROR(ParseString(&key));
        SkipSpace();
        if (!Consume(':')) return Error("expected ':'");
        JsonMember member;
        CHAMELEON_RETURN_IF_ERROR(ParseValue(&member, 1));
        (*members)[key] = std::move(member);
        SkipSpace();
        if (Consume('}')) break;
        if (!Consume(',')) return Error("expected ',' or '}'");
      }
    }
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(std::string_view what) const {
    return Status::InvalidArgument(
        StrFormat("json: %.*s at offset %zu", static_cast<int>(what.size()),
                  what.data(), pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // Member values this benchmark reads are ASCII; keep others
          // as '?' rather than re-encoding UTF-16.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  /// Consumes one or more digits; false when none follow.
  bool ConsumeDigits() {
    if (!AtDigit()) return false;
    while (AtDigit()) ++pos_;
    return true;
  }

  Status ParseNumber(double* out) {
    const std::size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !ConsumeDigits()) return Error("bad number");
    if (Consume('.') && !ConsumeDigits()) return Error("bad fraction");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Error("bad exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    *out = std::strtod(token.c_str(), nullptr);
    if (errno == ERANGE) return Error("number out of range");
    return Status::OK();
  }

  Status ParseValue(JsonMember* member, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("expected value");
    const char c = text_[pos_];
    if (c == '"') {
      member->kind = JsonMember::Kind::kString;
      return ParseString(&member->text);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      member->kind =
          c == '{' ? JsonMember::Kind::kObject : JsonMember::Kind::kArray;
      ++pos_;
      SkipSpace();
      if (Consume(close)) return Status::OK();
      while (true) {
        SkipSpace();
        if (c == '{') {
          std::string key;
          CHAMELEON_RETURN_IF_ERROR(ParseString(&key));
          SkipSpace();
          if (!Consume(':')) return Error("expected ':'");
        }
        JsonMember nested;
        CHAMELEON_RETURN_IF_ERROR(ParseValue(&nested, depth + 1));
        SkipSpace();
        if (Consume(close)) return Status::OK();
        if (!Consume(',')) return Error("expected ','");
      }
    }
    if (ConsumeWord("true")) {
      member->kind = JsonMember::Kind::kBool;
      member->boolean = true;
      return Status::OK();
    }
    if (ConsumeWord("false")) {
      member->kind = JsonMember::Kind::kBool;
      member->boolean = false;
      return Status::OK();
    }
    if (ConsumeWord("null")) {
      member->kind = JsonMember::Kind::kNull;
      return Status::OK();
    }
    member->kind = JsonMember::Kind::kNumber;
    return ParseNumber(&member->number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::map<std::string, JsonMember>> ParseJsonObject(
    std::string_view text) {
  std::map<std::string, JsonMember> members;
  JsonParser parser(text);
  CHAMELEON_RETURN_IF_ERROR(parser.ParseRoot(&members));
  return members;
}

}  // namespace chameleon::bench_e2e
