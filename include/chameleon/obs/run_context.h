#ifndef CHAMELEON_OBS_RUN_CONTEXT_H_
#define CHAMELEON_OBS_RUN_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file run_context.h
/// Run provenance: which build, config, seeds, and host produced a JSONL
/// stream. A RunManifest is emitted as the first record of a run
/// (`{"type":"manifest",...}`) so every downstream consumer — obs_dump,
/// its Chrome trace export, the bench harness — can attribute numbers to
/// an exact git SHA, compiler, flag set, and RNG seed instead of guessing.
///
/// BuildInfo comes from a configure-time-generated header
/// (`cmake/build_info.h.in` -> `<builddir>/generated/chameleon/
/// build_info.h`), included only by the implementation so nothing else
/// rebuilds when the SHA changes.

namespace chameleon {
class FlagSet;
}  // namespace chameleon

namespace chameleon::obs {

/// Compiler / git / flag provenance baked in at configure time.
struct BuildInfo {
  std::string version;           ///< project version, e.g. "1.0.0"
  std::string git_sha;           ///< full HEAD SHA, or "unknown"
  std::string git_describe;      ///< `git describe --always --dirty --tags`
  std::string compiler_id;       ///< e.g. "GNU"
  std::string compiler_version;  ///< e.g. "12.2.0"
  std::string build_type;        ///< e.g. "RelWithDebInfo"
  std::string cxx_flags;         ///< CMAKE_CXX_FLAGS as configured
  std::string sanitize;          ///< CHAMELEON_SANITIZE value, often ""
};

const BuildInfo& GetBuildInfo();

/// Execution-host facts sampled at call time.
struct HostInfo {
  std::string hostname;
  std::int64_t pid = 0;
  std::int64_t num_cpus = 0;
  std::int64_t page_size_bytes = 0;
};

HostInfo GetHostInfo();

/// Whole-process resource totals from getrusage(RUSAGE_SELF); feeds the
/// run_summary record and --version diagnostics.
struct ProcessUsage {
  double user_cpu_ms = 0.0;
  double system_cpu_ms = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
};

ProcessUsage GetProcessUsage();

class JsonWriter;

/// Writes `usage` as the `"rusage"` member of `out`'s open object, the
/// block run_summary and crash records share.
void AppendUsage(const ProcessUsage& usage, JsonWriter* out);

/// Multi-line `--version` text for the CLI tools:
///   <tool> (chameleon 1.0.0, v0-3-g7904802)
///   git:      7904802...
///   compiler: GNU 12.2.0, RelWithDebInfo
std::string VersionString(std::string_view tool);

/// The front door of every CLI: registers --help and --version on
/// `flags`, parses `argv[1..argc)`, and answers the two itself. Returns
/// the exit code when the tool should stop here (2 after a parse error,
/// with the usage on stderr; 0 after printing the usage or VersionString
/// on stdout), or nullopt when it should run.
std::optional<int> ParseToolFlags(FlagSet& flags, std::string_view tool,
                                  int argc, char** argv);

/// The run manifest. Capture() stamps tool name + argv; seeds and free-
/// form parameters are added by the caller before EmitRunManifest().
class RunManifest {
 public:
  /// `argv` spans the full command line including argv[0].
  static RunManifest Capture(std::string_view tool, int argc,
                             const char* const* argv);

  void AddSeed(std::string_view name, std::uint64_t value);
  void AddParam(std::string_view key, std::string_view value);

  const std::string& tool() const { return tool_; }
  const std::vector<std::string>& argv() const { return argv_; }
  const std::vector<std::pair<std::string, std::uint64_t>>& seeds() const {
    return seeds_;
  }
  const std::vector<std::pair<std::string, std::string>>& params() const {
    return params_;
  }

  /// One complete JSONL manifest record (no trailing newline):
  /// {"type":"manifest","t_ms":...,"tool":...,"build":{...},
  ///  "host":{...},"argv":[...],"seeds":{...},"params":{...}}
  std::string ToJsonLine() const;

 private:
  std::string tool_;
  std::vector<std::string> argv_;
  std::vector<std::pair<std::string, std::uint64_t>> seeds_;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// Writes the manifest to the process-global sink. No-op when
/// observability is disabled; call right after InitObservability() so the
/// manifest is the stream's first record.
void EmitRunManifest(const RunManifest& manifest);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_RUN_CONTEXT_H_
