#include "traced_pass.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/gen_obf.h"
#include "chameleon/anonymize/perturbation.h"
#include "chameleon/anonymize/relevance.h"
#include "chameleon/anonymize/rep_an.h"
#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/alloc_stats.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"

namespace chameleon::bench_e2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ProcessCpuSeconds() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// VmHWM from /proc/self/status in KiB; falls back to ru_maxrss.
double PeakRssKb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kb = std::strtod(line + 6, nullptr);
        break;
      }
    }
    std::fclose(status);
    if (kb >= 0.0) return kb;
  }
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// Resets VmHWM to the current RSS (Linux ≥ 4.0, "5" > clear_refs).
bool ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

/// Closes its span on scope exit unless Close() already did.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::string phase,
             bool on_path = true)
      : recorder_(recorder),
        id_(recorder.Open(std::move(name), std::move(phase), on_path)) {}
  ~ScopedSpan() {
    if (open_) recorder_.Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int Close() {
    if (open_) recorder_.Close(id_);
    open_ = false;
    return id_;
  }

 private:
  SpanRecorder& recorder_;
  int id_;
  bool open_ = true;
};

/// The σ driver's per-attempt stream (anonymize/chameleon.cc), mirrored
/// so phase B replays the very attempts phase A made.
std::uint64_t AttemptSeed(std::uint64_t seed, std::size_t level,
                          std::size_t attempt) {
  std::uint64_t state = seed ^ (0x94d049bb133111ebull * (level + 1)) ^
                        (0xd6e8feb86659fd93ull * (attempt + 1));
  return ::chameleon::SplitMix64(state);
}

}  // namespace

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)),
      origin_(std::chrono::steady_clock::now()) {}

int SpanRecorder::Open(std::string name, std::string phase, bool on_path) {
  const int id = static_cast<int>(spans_.size());
  // Fold the peak so far into the enclosing span before the reset hides
  // it from that span's own end-of-span reading.
  const double peak_kb = PeakRssKb();
  if (!stack_.empty()) {
    OpenState& parent = open_[static_cast<std::size_t>(stack_.back())];
    parent.peak_kb = std::max(parent.peak_kb, peak_kb);
  }
  if (peak_rss_per_span_) peak_rss_per_span_ = ResetPeakRss();

  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.phase = std::move(phase);
  span.on_path = on_path;
  spans_.push_back(std::move(span));
  open_.push_back(OpenState{ProcessCpuSeconds(),
                            obs::TotalAllocStats().alloc_bytes, 0.0});
  stack_.push_back(id);
  spans_.back().start_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
          .count();
  return id;
}

void SpanRecorder::Close(int id) {
  const double end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
          .count();
  const auto index = static_cast<std::size_t>(id);
  Span& span = spans_[index];
  const OpenState& state = open_[index];
  span.end_s = end_s;
  span.cpu_s = ProcessCpuSeconds() - state.cpu_s;
  span.alloc_mb =
      static_cast<double>(obs::TotalAllocStats().alloc_bytes -
                          state.alloc_bytes) /
      kMiB;
  const double peak_kb = std::max(state.peak_kb, PeakRssKb());
  span.rss_mb = peak_kb / 1024.0;
  // ScopedSpan closes innermost first, so `id` is on top: pop it and
  // hand its peak to the enclosing span.
  stack_.pop_back();
  if (!stack_.empty()) {
    OpenState& parent = open_[static_cast<std::size_t>(stack_.back())];
    parent.peak_kb = std::max(parent.peak_kb, peak_kb);
  }
}

std::string SpanRecorder::ToJson() const {
  std::string json = StrFormat(
      "{\n  \"schema\": \"chameleon-bench-e2e-trace-v1\",\n"
      "  \"workload\": \"%s\",\n  \"rss_mb\": \"%s\",\n  \"spans\": [",
      JsonEscape(workload_).c_str(),
      peak_rss_per_span_ ? "span peak" : "process peak at span end");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json += StrFormat(
        "%s\n    {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
        "\"workload\": \"%s\", \"phase\": \"%s\", \"on_path\": %s, "
        "\"start_s\": %.9f, \"end_s\": %.9f, \"wall_s\": %.9f, "
        "\"cpu_s\": %.6f, \"alloc_mb\": %.6f, \"rss_mb\": %.3f}",
        i == 0 ? "" : ",", s.id, s.parent, JsonEscape(s.name).c_str(),
        JsonEscape(workload_).c_str(), JsonEscape(s.phase).c_str(),
        s.on_path ? "true" : "false", s.start_s, s.end_s, s.wall_s(),
        s.cpu_s, s.alloc_mb, s.rss_mb);
  }
  json += "\n  ]\n}\n";
  return json;
}

TracedPass RunTracedPass(const TracedPassConfig& config,
                         SpanRecorder& recorder) {
  TracedPass pass;
  const auto fail = [&pass](const char* call, const Status& status) {
    pass.error = StrFormat("%s: %s", call, status.ToString().c_str());
    return pass;
  };

  const Result<anonymize::Variant> variant =
      anonymize::ParseVariant(config.method);
  if (!variant.ok()) return fail("ParseVariant", variant.status());
  const bool rep_an = *variant == anonymize::Variant::kRepAn;
  const bool uses_relevance = *variant == anonymize::Variant::kRSME ||
                              *variant == anonymize::Variant::kRS;

  // The CLI's defaults, with the flags the benchmark passes it.
  anonymize::ChameleonOptions options;
  options.k = config.k;
  options.epsilon = config.epsilon;
  options.relevance_worlds = config.err_worlds;
  options.seed = config.seed;
  options.threads = config.threads;

  ScopedSpan pass_span(recorder, "pass", "");

  // ---- Phase A: the CLI's calls.
  ScopedSpan phase_a(recorder, "phase_a", "A");
  ScopedSpan read_span(recorder, "graph.read", "A");
  const Result<graph::UncertainGraph> input =
      graph::ReadEdgeList(config.input_path);
  const int read_id = read_span.Close();
  if (!input.ok()) return fail("ReadEdgeList", input.status());

  ScopedSpan driver_span(recorder, "anonymize.driver", "A");
  const Result<anonymize::AnonymizeResult> result =
      anonymize::Anonymize(*input, *variant, options);
  const int driver_id = driver_span.Close();
  if (!result.ok()) return fail("Anonymize", result.status());
  pass.feasible = result->feasible;
  if (result->feasible) {
    ScopedSpan write_span(recorder, "graph.write", "A");
    const Status written =
        graph::WriteEdgeList(result->published, config.output_path);
    if (!written.ok()) return fail("WriteEdgeList", written);
  }
  const int phase_a_id = phase_a.Close();

  // ---- Phase B: the layers one at a time, on the graph the driver saw.
  ScopedSpan phase_b(recorder, "phase_b", "B");
  ScopedSpan extract_span(recorder, "anonymize.rep_extract", "B", rep_an);
  const Result<graph::UncertainGraph> representative =
      anonymize::ExtractRepresentative(*input, -1.0);
  const int extract_id = extract_span.Close();
  if (!representative.ok()) {
    return fail("ExtractRepresentative", representative.status());
  }
  const graph::UncertainGraph& g = rep_an ? *representative : *input;
  const privacy::AdversaryModel adversary =
      rep_an ? privacy::AdversaryModel::kStructuralDegree : options.adversary;

  privacy::UniquenessOptions uniqueness_options;
  uniqueness_options.bandwidth = options.uniqueness_bandwidth;
  uniqueness_options.threads = options.threads;
  ScopedSpan uniqueness_span(recorder, "privacy.uniqueness", "B");
  const Result<privacy::UniquenessScores> uniqueness =
      privacy::ComputeUniqueness(g, uniqueness_options);
  const int uniqueness_id = uniqueness_span.Close();
  if (!uniqueness.ok()) return fail("ComputeUniqueness", uniqueness.status());

  anonymize::RelevanceOptions relevance_options;
  relevance_options.worlds = options.relevance_worlds;
  relevance_options.seed = options.seed;
  relevance_options.threads = options.threads;
  relevance_options.max_rel_err = options.relevance_max_rel_err;
  relevance_options.heartbeat = options.heartbeat;
  ScopedSpan relevance_span(recorder, "anonymize.relevance", "B",
                            uses_relevance);
  const Result<anonymize::EdgeRelevance> relevance =
      anonymize::EstimateRelevance(g, relevance_options);
  const int relevance_id = relevance_span.Close();
  if (!relevance.ok()) return fail("EstimateRelevance", relevance.status());

  ScopedSpan priorities_span(recorder, "anonymize.priorities", "B");
  const Result<std::vector<double>> priorities =
      anonymize::ComputeEdgePriorities(
          g, uniqueness->scores,
          uses_relevance ? relevance->err : std::vector<double>{});
  const int priorities_id = priorities_span.Close();
  if (!priorities.ok()) {
    return fail("ComputeEdgePriorities", priorities.status());
  }

  anonymize::GenObfOptions gen_options;
  gen_options.k = options.k;
  gen_options.epsilon = options.epsilon;
  gen_options.candidate_fraction = options.candidate_fraction;
  gen_options.white_noise = options.white_noise;
  gen_options.noise = *variant == anonymize::Variant::kRS
                          ? anonymize::NoiseModel::kAdditive
                          : anonymize::NoiseModel::kMaxEntropy;
  gen_options.adversary = adversary;
  gen_options.threads = options.threads;
  std::vector<int> genobf_ids;
  std::optional<anonymize::GenObfAttempt> last;
  for (const anonymize::SigmaTraceEntry& entry : result->trace) {
    Rng rng(AttemptSeed(options.seed, entry.level, entry.attempt));
    ScopedSpan genobf_span(recorder, "anonymize.genobf", "B");
    Result<anonymize::GenObfAttempt> attempt = anonymize::GenObf(
        g, uniqueness->scores, *priorities, entry.sigma, gen_options, rng);
    genobf_ids.push_back(genobf_span.Close());
    if (!attempt.ok()) return fail("GenObf", attempt.status());
    last = std::move(*attempt);
  }
  if (!last.has_value()) {
    return fail("GenObf", Status::Internal("the driver made no attempt"));
  }

  // One attempt's tail, timed on the last attempt's graph.
  const graph::UncertainGraph& attempt_graph = last->published;
  ScopedSpan build_span(recorder, "graph.build", "B");
  graph::UncertainGraphBuilder builder(attempt_graph.num_nodes());
  for (const graph::UncertainEdge& e : attempt_graph.edges()) {
    if (Status s = builder.AddEdge(e.u, e.v, e.p); !s.ok()) {
      return fail("UncertainGraphBuilder::AddEdge", s);
    }
  }
  const Result<graph::UncertainGraph> rebuilt = std::move(builder).Build();
  const int build_id = build_span.Close();
  if (!rebuilt.ok()) return fail("UncertainGraphBuilder::Build",
                                 rebuilt.status());

  ScopedSpan pmf_span(recorder, "privacy.degree_pmf", "B");
  const std::vector<privacy::DegreeDistribution> dists =
      privacy::BuildDegreeDistributions(*rebuilt, options.threads);
  const int pmf_id = pmf_span.Close();

  privacy::ObfuscationOptions verify_options;
  verify_options.k = options.k;
  verify_options.epsilon = options.epsilon;
  verify_options.adversary = adversary;
  verify_options.threads = options.threads;
  verify_options.keep_per_vertex = false;
  ScopedSpan verify_span(recorder, "privacy.verify", "B");
  const Result<privacy::ObfuscationCertificate> certificate =
      privacy::VerifyObfuscation(*rebuilt, dists, verify_options);
  const int verify_id = verify_span.Close();
  if (!certificate.ok()) return fail("VerifyObfuscation",
                                     certificate.status());

  ScopedSpan write_span(recorder, "graph.write", "B");
  const Status written = graph::WriteEdgeList(*rebuilt, config.phase_b_output);
  const int write_id = write_span.Close();
  if (!written.ok()) return fail("WriteEdgeList", written);
  phase_b.Close();
  pass_span.Close();

  // ---- Per-layer metrics from the spans.
  const auto wall = [&](int id) { return recorder.span(id).wall_s(); };
  const double attempts = static_cast<double>(genobf_ids.size());
  double genobf_wall = 0.0;
  double genobf_alloc = 0.0;
  for (const int id : genobf_ids) {
    genobf_wall += wall(id);
    genobf_alloc += recorder.span(id).alloc_mb;
  }
  std::size_t successes = 0;
  for (const auto& entry : result->trace) successes += entry.success ? 1 : 0;

  const Span& relevance_stats = recorder.span(relevance_id);
  const double build_ms = 1e3 * wall(build_id);
  const double pmf_ms = 1e3 * wall(pmf_id);
  const double verify_ms = 1e3 * wall(verify_id);
  const double genobf_ms = 1e3 * genobf_wall / attempts;
  const double on_path_layers = (rep_an ? wall(extract_id) : 0.0) +
                                wall(uniqueness_id) +
                                (uses_relevance ? wall(relevance_id) : 0.0) +
                                wall(priorities_id) + genobf_wall;

  auto& m = pass.layers;
  m["graph.read.wall_s"] = wall(read_id);
  m["graph.read.mb_per_s"] =
      static_cast<double>(config.input_bytes) / kMiB / wall(read_id);
  m["graph.write.wall_s"] = wall(write_id);
  m["graph.build.ms_per_attempt"] = build_ms;
  m["privacy.uniqueness.wall_s"] = wall(uniqueness_id);
  m["privacy.uniqueness.cpu_s"] = recorder.span(uniqueness_id).cpu_s;
  m["privacy.degree_pmf.ms_per_attempt"] = pmf_ms;
  m["privacy.verify.ms_per_attempt"] = verify_ms;
  m["anonymize.relevance.wall_s"] = relevance_stats.wall_s();
  m["anonymize.relevance.cpu_s"] = relevance_stats.cpu_s;
  m["anonymize.relevance.parallelism"] =
      relevance_stats.cpu_s / relevance_stats.wall_s();
  m["anonymize.relevance.alloc_mb"] = relevance_stats.alloc_mb;
  m["anonymize.relevance.rss_mb"] = relevance_stats.rss_mb;
  m["anonymize.genobf.attempts"] = attempts;
  m["anonymize.genobf.success_ratio"] =
      static_cast<double>(successes) / attempts;
  m["anonymize.genobf.ms_per_attempt"] = genobf_ms;
  m["anonymize.genobf.select_perturb_ms"] =
      genobf_ms - build_ms - pmf_ms - verify_ms;
  m["anonymize.genobf.alloc_mb"] = genobf_alloc / attempts;
  m["anonymize.driver.wall_s"] = wall(driver_id);
  m["anonymize.driver.unattributed_s"] = wall(driver_id) - on_path_layers;
  m["anonymize.priorities.wall_s"] = wall(priorities_id);
  m["anonymize.rep_extract.wall_s"] = wall(extract_id);
  pass.phase_a_s = wall(phase_a_id);
  return pass;
}

}  // namespace chameleon::bench_e2e
