#ifndef CHAMELEON_BENCH_E2E_TRACED_PASS_H_
#define CHAMELEON_BENCH_E2E_TRACED_PASS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file traced_pass.h
/// The benchmark's own spans around each call into a library layer, and
/// the traced in-process pass that produces the per-layer metrics.
///
/// Phase A repeats the CLI's calls (ReadEdgeList → Anonymize →
/// WriteEdgeList). Phase B replays the layers one at a time on the graph
/// the driver saw: representative extraction, uniqueness, relevance,
/// priorities, one GenObf per phase-A attempt at that attempt's σ, then
/// on the last attempt's graph a builder rebuild, the degree PMFs, the
/// verifier and a write. Every workload replays every layer, so every
/// per-layer metric exists on every workload; a layer its variant does
/// not use is marked on_path = false and left out of the driver's
/// unattributed time.

namespace chameleon::bench_e2e {

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  std::string phase;
  bool on_path = true;
  /// Seconds since the recorder was created.
  double start_s = 0.0;
  double end_s = 0.0;
  /// Process CPU (getrusage RUSAGE_SELF), so worker threads count.
  double cpu_s = 0.0;
  /// Bytes requested from operator new on every thread, in MiB.
  double alloc_mb = 0.0;
  /// Peak resident set during the span, in MiB (see peak_rss_per_span).
  double rss_mb = 0.0;

  double wall_s() const { return end_s - start_s; }
};

/// Keeps spans in memory; ToJson() writes them out at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  int Open(std::string name, std::string phase, bool on_path = true);
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// True when the kernel let the recorder reset the peak-RSS mark at
  /// each span start, so rss_mb is the span's own peak; otherwise it is
  /// the process peak when the span closed.
  bool peak_rss_per_span() const { return peak_rss_per_span_; }

  std::string ToJson() const;

 private:
  struct OpenState {
    double cpu_s = 0.0;
    std::uint64_t alloc_bytes = 0;
    double peak_kb = 0.0;
  };

  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<OpenState> open_;
  std::vector<int> stack_;
  bool peak_rss_per_span_ = true;
};

struct TracedPassConfig {
  std::string input_path;
  std::uint64_t input_bytes = 0;
  /// Phase A's WriteEdgeList target (what the CLI's --out would get).
  std::string output_path;
  /// Phase B's write target.
  std::string phase_b_output;
  std::string method;
  double k = 0.0;
  double epsilon = 0.0;
  std::size_t err_worlds = 200;
  std::uint64_t seed = 0;
  int threads = 1;
};

struct TracedPass {
  /// Non-empty when a library call returned an error; metrics are then
  /// incomplete.
  std::string error;
  bool feasible = false;
  /// Per-layer metrics by name (trace.overhead_frac needs the untraced
  /// wall time and is derived by the caller from phase_a_s).
  std::map<std::string, double> layers;
  double phase_a_s = 0.0;
};

TracedPass RunTracedPass(const TracedPassConfig& config,
                         SpanRecorder& recorder);

}  // namespace chameleon::bench_e2e

#endif  // CHAMELEON_BENCH_E2E_TRACED_PASS_H_
