#include "chameleon/obs/run_context.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include "chameleon/build_info.h"  // generated at configure time
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/sink.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/string_util.h"

namespace chameleon::obs {
namespace {

std::string ReadHostname() {
  char buffer[256] = {};
  if (gethostname(buffer, sizeof(buffer) - 1) != 0) return "unknown";
  return buffer;
}

std::uint64_t NonNegative(long value) {
  return value > 0 ? static_cast<std::uint64_t>(value) : 0;
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo* info = new BuildInfo{
      CHAMELEON_BUILD_VERSION,
      CHAMELEON_BUILD_GIT_SHA,
      CHAMELEON_BUILD_GIT_DESCRIBE,
      CHAMELEON_BUILD_COMPILER_ID,
      CHAMELEON_BUILD_COMPILER_VERSION,
      CHAMELEON_BUILD_TYPE,
      CHAMELEON_BUILD_CXX_FLAGS,
      CHAMELEON_BUILD_SANITIZE,
  };
  return *info;
}

HostInfo GetHostInfo() {
  HostInfo host;
  host.hostname = ReadHostname();
  host.pid = static_cast<std::int64_t>(getpid());
  host.num_cpus = sysconf(_SC_NPROCESSORS_ONLN);
  host.page_size_bytes = sysconf(_SC_PAGESIZE);
  return host;
}

ProcessUsage GetProcessUsage() {
  ProcessUsage usage;
  struct rusage ru = {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return usage;
  usage.user_cpu_ms = static_cast<double>(ru.ru_utime.tv_sec) * 1e3 +
                      static_cast<double>(ru.ru_utime.tv_usec) * 1e-3;
  usage.system_cpu_ms = static_cast<double>(ru.ru_stime.tv_sec) * 1e3 +
                        static_cast<double>(ru.ru_stime.tv_usec) * 1e-3;
  usage.max_rss_kb = NonNegative(ru.ru_maxrss);
  usage.minor_faults = NonNegative(ru.ru_minflt);
  usage.major_faults = NonNegative(ru.ru_majflt);
  return usage;
}

std::string VersionString(std::string_view tool) {
  const BuildInfo& build = GetBuildInfo();
  std::string out = StrFormat("%s (chameleon %s, %s)\n",
                              std::string(tool).c_str(), build.version.c_str(),
                              build.git_describe.c_str());
  out += StrFormat("git:      %s\n", build.git_sha.c_str());
  out += StrFormat("compiler: %s %s, %s%s%s\n",
                   build.compiler_id.c_str(), build.compiler_version.c_str(),
                   build.build_type.c_str(),
                   build.sanitize.empty() ? "" : ", sanitize=",
                   build.sanitize.c_str());
  return out;
}

std::optional<int> ParseToolFlags(FlagSet& flags, std::string_view tool,
                                  int argc, char** argv) {
  flags.AddBool("version", false, "print build provenance and exit");
  flags.AddBool("help", false, "show usage");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "error: %s\n%s", s.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fprintf(stdout, "%s", flags.Usage().c_str());
    return 0;
  }
  if (flags.GetBool("version")) {
    std::fprintf(stdout, "%s", VersionString(tool).c_str());
    return 0;
  }
  return std::nullopt;
}

RunManifest RunManifest::Capture(std::string_view tool, int argc,
                                 const char* const* argv) {
  RunManifest manifest;
  manifest.tool_ = tool;
  manifest.argv_.reserve(argc > 0 ? static_cast<std::size_t>(argc) : 0);
  for (int i = 0; i < argc; ++i) {
    manifest.argv_.emplace_back(argv[i] != nullptr ? argv[i] : "");
  }
  return manifest;
}

void RunManifest::AddSeed(std::string_view name, std::uint64_t value) {
  seeds_.emplace_back(std::string(name), value);
}

void RunManifest::AddParam(std::string_view key, std::string_view value) {
  params_.emplace_back(std::string(key), std::string(value));
}

void AppendUsage(const ProcessUsage& usage, JsonWriter* out) {
  out->Object("rusage")
      .Num("user_cpu_ms", usage.user_cpu_ms)
      .Num("system_cpu_ms", usage.system_cpu_ms)
      .Int("max_rss_kb", usage.max_rss_kb)
      .Int("minflt", usage.minor_faults)
      .Int("majflt", usage.major_faults)
      .End();
}

std::string RunManifest::ToJsonLine() const {
  const BuildInfo& build = GetBuildInfo();
  const HostInfo host = GetHostInfo();

  Record record("manifest");
  record.Str("tool", tool_)
      .Object("build")
      .Str("version", build.version)
      .Str("git_sha", build.git_sha)
      .Str("git_describe", build.git_describe)
      .Str("compiler", build.compiler_id + " " + build.compiler_version)
      .Str("build_type", build.build_type)
      .Str("cxx_flags", build.cxx_flags)
      .Str("sanitize", build.sanitize)
      .End()
      .Object("host")
      .Str("hostname", host.hostname)
      .Int("pid", host.pid)
      .Int("cpus", host.num_cpus)
      .Int("page_size", host.page_size_bytes)
      .End()
      .Array("argv");
  for (const std::string& arg : argv_) record.Str(arg);
  record.End().Object("seeds");
  for (const auto& [name, value] : seeds_) record.Int(name, value);
  record.End();
  if (!params_.empty()) {
    record.Object("params");
    for (const auto& [key, value] : params_) record.Str(key, value);
  }
  return record.Finish();
}

void EmitRunManifest(const RunManifest& manifest) {
  if (!Enabled()) return;
  RecordSink* sink = GlobalSink();
  if (sink == nullptr) return;
  sink->Write(manifest.ToJsonLine());
  sink->Flush();  // survive even if the run dies before its next flush
}

}  // namespace chameleon::obs
