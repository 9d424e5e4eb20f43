// chameleon_bench_e2e: whole-run benchmark of the anonymization CLI.
//
// Generates each workload's input from --seed, runs a traced in-process
// pass for the per-layer metrics, runs chameleon_anonymize as a child
// process for the end-to-end metrics (reps interleaved round-robin across
// workloads), checks every output, prints every metric by name with its
// unit, and writes <out>/results.json plus <out>/trace_<workload>.json:
//
//   cmake -S bench/e2e -B build-e2e && cmake --build build-e2e -j4
//   build-e2e/chameleon_bench_e2e --seed=2018 --reps=5 --out=build-e2e/results
//
// The last line on stdout is one JSON object {correct, attempted, failed,
// metrics}. Exit code 0 when every run passed its checks, 1 when any run
// failed, 2 on a usage error.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chameleon/graph/io.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/string_util.h"
#include "common.h"
#include "inputs.h"
#include "traced_pass.h"

#ifndef E2E_ANONYMIZE_BIN
#error "E2E_ANONYMIZE_BIN must name the chameleon_anonymize binary"
#endif
#ifndef E2E_OBF_CHECK_BIN
#error "E2E_OBF_CHECK_BIN must name the chameleon_obf_check binary"
#endif

namespace chameleon::bench_e2e {
namespace {

constexpr std::uint64_t kDefaultSeed = 2018;
/// In-process reads per workload behind setup_s.
constexpr int kSetupReads = 5;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Workload {
  const char* name;
  const char* why;
  GraphSpec graph;
  const char* method;
  double k;
  double epsilon;
  std::size_t err_worlds;
  /// Outcome declared for kDefaultSeed; other seeds take the set's first
  /// run as the reference.
  bool expect_feasible;
};

// Each workload puts a different layer on top (shares measured on this
// benchmark's traced pass, README.md), so a change to one layer moves
// one workload and leaves a prediction of "no change" on the others.
const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      {"er50k-rsme",
       "ROADMAP baseline: O(V^2) uniqueness dominates, relevance second; "
       "raw graph already passes yet the search still perturbs",
       {.shape = GraphShape::kErdosRenyi, .nodes = 50000, .edges = 200000},
       "rsme", 500.0, 0.01, 200, true},
      {"dense8k-me",
       "dense ER, ME: GenObf attempts (select/perturb, PMF rebuild, "
       "verify) and I/O dominate; no relevance on the path",
       {.shape = GraphShape::kErdosRenyi, .nodes = 8000, .edges = 400000},
       "me", 1000.0, 0.01, 200, true},
      {"dense4k-rs",
       "dense ER, RS at the paper's 1000 relevance worlds: the relevance "
       "estimator dominates wall, CPU and peak memory",
       {.shape = GraphShape::kErdosRenyi, .nodes = 4000, .edges = 200000},
       "rs", 500.0, 0.01, 1000, true},
      {"hub20k-repan",
       "heavy-tailed Chung-Lu, Rep-An: structural adversary, extraction, "
       "every attempt fails and nothing is written",
       {.shape = GraphShape::kChungLu,
        .nodes = 20000,
        .edges = 100000,
        .gamma = 2.5},
       "rep-an", 100.0, 0.01, 200, false},
  };
  return workloads;
}

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

/// Declared in BENCHMARK.json's end_to_end list (with their bounds).
const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s", "lower"},
      {"cpu_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"setup_s", "s", "lower"},
  };
  return defs;
}

/// Output-quality and correctness numbers. They read 0 whenever nothing
/// is published, so they are reported but carry no relative bound.
const std::vector<MetricDef>& QualityMetrics() {
  static const std::vector<MetricDef> defs = {
      {"noise_l1", "prob", "lower"},
      {"reliability_delta", "prob", "lower"},
      {"failed_frac", "ratio", "lower"},
  };
  return defs;
}

/// Every column of the end-to-end table.
std::vector<MetricDef> ReportedEndToEndMetrics() {
  std::vector<MetricDef> defs = EndToEndMetrics();
  defs.insert(defs.end(), QualityMetrics().begin(), QualityMetrics().end());
  return defs;
}

/// Declared in BENCHMARK.json's per_layer list.
const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.read.wall_s", "s", "lower"},
      {"graph.read.mb_per_s", "MB/s", "higher"},
      {"graph.write.wall_s", "s", "lower"},
      {"graph.build.ms_per_attempt", "ms", "lower"},
      {"privacy.uniqueness.wall_s", "s", "lower"},
      {"privacy.uniqueness.cpu_s", "s", "lower"},
      {"privacy.degree_pmf.ms_per_attempt", "ms", "lower"},
      {"privacy.verify.ms_per_attempt", "ms", "lower"},
      {"anonymize.relevance.wall_s", "s", "lower"},
      {"anonymize.relevance.cpu_s", "s", "lower"},
      {"anonymize.relevance.parallelism", "ratio", "higher"},
      {"anonymize.relevance.alloc_mb", "MB", "lower"},
      {"anonymize.relevance.rss_mb", "MB", "lower"},
      {"anonymize.genobf.attempts", "count", "lower"},
      {"anonymize.genobf.success_ratio", "ratio", "higher"},
      {"anonymize.genobf.ms_per_attempt", "ms", "lower"},
      {"anonymize.genobf.select_perturb_ms", "ms", "lower"},
      {"anonymize.genobf.alloc_mb", "MB", "lower"},
      {"anonymize.driver.wall_s", "s", "lower"},
      {"anonymize.driver.unattributed_s", "s", "lower"},
      {"anonymize.priorities.wall_s", "s", "lower"},
      {"anonymize.rep_extract.wall_s", "s", "lower"},
      {"trace.overhead_frac", "ratio", "lower"},
      {"noise_l1", "prob", "lower"},
      {"reliability_delta", "prob", "lower"},
  };
  return defs;
}

enum class TraceMode {
  /// Untraced child runs only: end-to-end metrics.
  kOff,
  /// Traced passes, plus --reps untraced runs for trace.overhead_frac.
  kOnly,
  /// One traced pass per workload, then the untraced runs.
  kBoth,
};

struct Config {
  std::uint64_t seed = kDefaultSeed;
  int reps = 5;
  double seconds = 0.0;
  TraceMode trace = TraceMode::kBoth;
  int threads = 2;
  int check_threads = 2;
  std::string out;
};

struct Rep {
  ChildUsage usage;
  bool feasible = false;
  std::string hash;
  std::vector<std::string> failures;
};

struct Pass {
  TracedPass result;
  std::string hash;
  std::vector<std::string> failures;
};

struct Verdict {
  std::vector<std::string> failures;
  double noise_l1 = 0.0;
  double reliability_delta = 0.0;
};

/// Sentinel hash for a run that published nothing.
const char kNoOutput[] = "none";

struct WorkloadRun {
  explicit WorkloadRun(const Workload& w) : workload(&w), recorder(w.name) {}

  const Workload* workload;
  std::string dir;
  std::string input_path;
  std::string input_hash;
  std::uint64_t input_bytes = 0;
  bool input_cached = false;
  EdgeList input;
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  std::vector<Pass> passes;
  SpanRecorder recorder;
  std::optional<bool> expected_feasible;
  std::string reference_hash;
  /// First published file kept per distinct output hash.
  std::map<std::string, std::string> published;
  std::map<std::string, Verdict> verdicts;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

/// Creates `path` and its parents; with `emptied`, first removes what an
/// earlier run left there.
Status MakeDir(const std::string& path, bool emptied) {
  std::error_code ec;
  if (emptied) std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create " + path + ": " + ec.message());
  }
  return Status::OK();
}

std::string Short(const std::string& hash) { return hash.substr(0, 12); }

// ---------------------------------------------------------------------------
// Inputs

Status PrepareInput(WorkloadRun& run, const Config& config) {
  const Workload& w = *run.workload;
  const std::string dir = config.out + "/inputs";
  CHAMELEON_RETURN_IF_ERROR(MakeDir(dir, /*emptied=*/false));
  run.input_path = StrFormat("%s/%s_s%llu.edges", dir.c_str(), w.name,
                             static_cast<unsigned long long>(config.seed));
  std::string text;
  if (FileExists(run.input_path)) {
    Result<std::string> cached = ReadFile(run.input_path);
    if (!cached.ok()) return cached.status();
    text = std::move(*cached);
    run.input_cached = true;
  } else {
    text = FormatEdgeList(GenerateGraph(w.graph, config.seed));
    CHAMELEON_RETURN_IF_ERROR(WriteFileAtomic(run.input_path, text));
  }
  Result<EdgeList> parsed = ParseEdgeListText(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(run.input_path + ": " +
                                   parsed.status().ToString());
  }
  if (parsed->nodes != w.graph.nodes ||
      parsed->edges.size() != w.graph.edges) {
    return Status::InvalidArgument(run.input_path +
                                   ": cached input has the wrong shape");
  }
  run.input = std::move(*parsed);
  run.input_hash = Sha256Hex(text);
  run.input_bytes = text.size();
  return Status::OK();
}

/// The set-up every CLI run pays: loading the edge list.
Status MeasureSetup(WorkloadRun& run) {
  for (int i = 0; i < kSetupReads; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const Result<graph::UncertainGraph> graph =
        graph::ReadEdgeList(run.input_path);
    run.setup_s.push_back(SecondsSince(start));
    if (!graph.ok()) return graph.status();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Runs and their checks

/// Hashes the file a run published (or kNoOutput when none should exist)
/// and keeps the first file per hash for the deferred checks.
std::string TakeOutput(WorkloadRun& run, const std::string& path,
                       bool feasible, std::vector<std::string>* failures) {
  const bool exists = FileExists(path);
  if (feasible != exists) {
    failures->push_back(feasible ? "feasible run wrote no edge list"
                                 : "infeasible run wrote an edge list");
  }
  if (!exists) return kNoOutput;
  Result<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) {
    failures->push_back(bytes.status().ToString());
    return kNoOutput;
  }
  const std::string hash = Sha256Hex(*bytes);
  if (run.published.count(hash) == 0) {
    const std::string kept = run.dir + "/published_" + Short(hash) + ".edges";
    if (std::rename(path.c_str(), kept.c_str()) == 0) {
      run.published[hash] = kept;
    } else {
      failures->push_back("cannot keep " + path);
    }
  } else {
    std::remove(path.c_str());
  }
  return hash;
}

/// Feasibility against the declared (or first observed) outcome, and the
/// output hash against the set's first output.
void CheckAgainstReference(WorkloadRun& run, bool feasible,
                           const std::string& hash,
                           std::vector<std::string>* failures) {
  if (!run.expected_feasible.has_value()) run.expected_feasible = feasible;
  if (feasible != *run.expected_feasible) {
    failures->push_back(StrFormat("feasible=%s, expected %s",
                                  feasible ? "true" : "false",
                                  *run.expected_feasible ? "true" : "false"));
  }
  if (run.reference_hash.empty()) run.reference_hash = hash;
  if (hash != run.reference_hash) {
    failures->push_back("output sha256 " + Short(hash) +
                        " differs from the set's " +
                        Short(run.reference_hash));
  }
}

void RunRep(WorkloadRun& run, const Config& config) {
  const Workload& w = *run.workload;
  const std::string out = run.dir + "/anon.edges";
  const std::string result_path = run.dir + "/result.json";
  const std::string log = run.dir + "/anonymize.log";
  std::remove(out.c_str());
  std::remove(result_path.c_str());
  const std::vector<std::string> argv = {
      E2E_ANONYMIZE_BIN,
      "--graph=" + run.input_path,
      StrFormat("--method=%s", w.method),
      StrFormat("--k=%.17g", w.k),
      StrFormat("--eps=%.17g", w.epsilon),
      StrFormat("--err_worlds=%zu", w.err_worlds),
      StrFormat("--threads=%d", config.threads),
      StrFormat("--seed=%llu", static_cast<unsigned long long>(config.seed)),
      "--out=" + out,
      "--result=" + result_path};

  Rep rep;
  Result<ChildUsage> usage = RunChild(argv, log);
  if (!usage.ok()) {
    rep.failures.push_back(usage.status().ToString());
    run.reps.push_back(std::move(rep));
    return;
  }
  rep.usage = *usage;
  if (usage->exit_code != 0) {
    rep.failures.push_back(
        usage->signal != 0
            ? StrFormat("killed by signal %d (log %s)", usage->signal,
                        log.c_str())
            : StrFormat("exit code %d (log %s)", usage->exit_code,
                        log.c_str()));
    run.reps.push_back(std::move(rep));
    return;
  }
  Result<std::string> text = ReadFile(result_path);
  Result<std::map<std::string, JsonMember>> json =
      text.ok() ? ParseJsonObject(*text)
                : Result<std::map<std::string, JsonMember>>(text.status());
  const auto member = [&](const char* key) -> const JsonMember* {
    if (!json.ok()) return nullptr;
    const auto it = json->find(key);
    return it == json->end() ? nullptr : &it->second;
  };
  const JsonMember* schema = member("schema");
  const JsonMember* feasible = member("feasible");
  if (!json.ok() || schema == nullptr ||
      schema->text != "chameleon-anonymize-v1" || feasible == nullptr ||
      feasible->kind != JsonMember::Kind::kBool) {
    rep.failures.push_back("result json missing or malformed: " +
                           (json.ok() ? std::string("schema/feasible")
                                      : json.status().ToString()));
    run.reps.push_back(std::move(rep));
    return;
  }
  rep.feasible = feasible->boolean;
  rep.hash = TakeOutput(run, out, rep.feasible, &rep.failures);
  CheckAgainstReference(run, rep.feasible, rep.hash, &rep.failures);
  run.reps.push_back(std::move(rep));
}

void RunPass(WorkloadRun& run, const Config& config) {
  const Workload& w = *run.workload;
  TracedPassConfig pass_config;
  pass_config.input_path = run.input_path;
  pass_config.input_bytes = run.input_bytes;
  pass_config.output_path = run.dir + "/traced.edges";
  pass_config.phase_b_output = run.dir + "/phase_b.edges";
  pass_config.method = w.method;
  pass_config.k = w.k;
  pass_config.epsilon = w.epsilon;
  pass_config.err_worlds = w.err_worlds;
  pass_config.seed = config.seed;
  pass_config.threads = config.threads;
  std::remove(pass_config.output_path.c_str());

  Pass pass;
  pass.result = RunTracedPass(pass_config, run.recorder);
  std::remove(pass_config.phase_b_output.c_str());
  if (!pass.result.error.empty()) {
    pass.failures.push_back(pass.result.error);
  } else {
    pass.hash = TakeOutput(run, pass_config.output_path, pass.result.feasible,
                           &pass.failures);
    CheckAgainstReference(run, pass.result.feasible, pass.hash,
                          &pass.failures);
  }
  run.passes.push_back(std::move(pass));
}

/// Checks one published edge list (once per distinct hash) and measures
/// its utility against the input.
Verdict CheckPublished(const WorkloadRun& run, const std::string& path,
                       const Config& config) {
  const Workload& w = *run.workload;
  const bool rep_an = std::string(w.method) == "rep-an";
  Verdict verdict;
  Result<std::string> text = ReadFile(path);
  Result<EdgeList> published =
      text.ok() ? ParseEdgeListText(*text) : Result<EdgeList>(text.status());
  if (!published.ok()) {
    verdict.failures.push_back("published edge list unreadable: " +
                               published.status().ToString());
    return verdict;
  }
  for (const Edge& e : published->edges) {
    if (!(e.p >= 0.0 && e.p <= 1.0)) {
      verdict.failures.push_back(StrFormat(
          "probability %.17g outside [0,1] on (%u, %u)", e.p, e.u, e.v));
      break;
    }
  }
  // Uncertain variants only move probabilities; Rep-An publishes a subset
  // of the input's pairs (its representative instance).
  bool topology_ok = published->nodes == run.input.nodes;
  std::size_t j = 0;
  for (const Edge& e : published->edges) {
    while (rep_an && j < run.input.edges.size() &&
           (run.input.edges[j].u < e.u ||
            (run.input.edges[j].u == e.u && run.input.edges[j].v < e.v))) {
      ++j;
    }
    if (j == run.input.edges.size() || run.input.edges[j].u != e.u ||
        run.input.edges[j].v != e.v) {
      topology_ok = false;
      break;
    }
    ++j;
  }
  if (!rep_an && published->edges.size() != run.input.edges.size()) {
    topology_ok = false;
  }
  if (!topology_ok) verdict.failures.push_back("edge topology changed");

  const std::string verdict_path = run.dir + "/obf_check.json";
  const std::string log = run.dir + "/obf_check.log";
  std::remove(verdict_path.c_str());
  std::vector<std::string> argv = {
      E2E_OBF_CHECK_BIN, "--graph=" + path, StrFormat("--k=%.17g", w.k),
      StrFormat("--eps=%.17g", w.epsilon),
      StrFormat("--threads=%d", config.check_threads),
      "--out=" + verdict_path};
  if (rep_an) argv.push_back("--adversary=structural");
  Result<ChildUsage> usage = RunChild(argv, log);
  Result<std::string> verdict_text =
      usage.ok() && usage->exit_code == 0
          ? ReadFile(verdict_path)
          : Result<std::string>(
                Status::Internal("chameleon_obf_check failed, log " + log));
  Result<std::map<std::string, JsonMember>> verdict_json =
      verdict_text.ok()
          ? ParseJsonObject(*verdict_text)
          : Result<std::map<std::string, JsonMember>>(verdict_text.status());
  if (!verdict_json.ok()) {
    verdict.failures.push_back("re-check: " +
                               verdict_json.status().ToString());
  } else {
    const auto obfuscated = verdict_json->find("obfuscated");
    const auto eps_hat = verdict_json->find("eps_hat");
    if (obfuscated == verdict_json->end() || !obfuscated->second.boolean) {
      verdict.failures.push_back(StrFormat(
          "chameleon_obf_check rejects the output: eps_hat=%.6g > eps=%.6g",
          eps_hat == verdict_json->end() ? -1.0 : eps_hat->second.number,
          w.epsilon));
    }
  }

  verdict.noise_l1 = NoiseL1(run.input, *published);
  verdict.reliability_delta =
      CompareReliability(run.input, *published, config.seed).delta;
  return verdict;
}

// ---------------------------------------------------------------------------
// Metrics and reporting

struct Summary {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  Quartiles wall;
  double wall_max = 0.0;
  std::size_t wall_n = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

/// Counts one run as attempted, and as failed when it or the output it
/// published failed a check. Returns whether it passed.
bool Tally(const WorkloadRun& run, const std::vector<std::string>& own,
           const std::string& hash, const std::string& label, Summary& s) {
  std::vector<std::string> failures = own;
  if (const auto verdict = run.verdicts.find(hash);
      verdict != run.verdicts.end()) {
    failures.insert(failures.end(), verdict->second.failures.begin(),
                    verdict->second.failures.end());
  }
  ++s.attempted;
  for (const std::string& f : failures) s.failures.push_back(label + ": " + f);
  if (!failures.empty()) ++s.failed;
  return failures.empty();
}

Summary Summarize(const WorkloadRun& run) {
  Summary s;
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> rss;
  for (std::size_t i = 0; i < run.reps.size(); ++i) {
    const Rep& rep = run.reps[i];
    if (!Tally(run, rep.failures, rep.hash, StrFormat("rep %zu", i), s)) {
      continue;
    }
    wall.push_back(rep.usage.wall_s);
    cpu.push_back(rep.usage.cpu_s);
    rss.push_back(rep.usage.peak_rss_mb);
  }
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> phase_a;
  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    const Pass& pass = run.passes[i];
    if (!Tally(run, pass.failures, pass.hash,
               StrFormat("traced pass %zu", i), s)) {
      continue;
    }
    for (const auto& [name, value] : pass.result.layers) {
      layers[name].push_back(value);
    }
    phase_a.push_back(pass.result.phase_a_s);
  }

  s.wall = ComputeQuartiles(wall);
  s.wall_max =
      wall.empty() ? kNaN : *std::max_element(wall.begin(), wall.end());
  s.wall_n = wall.size();
  const auto reference = run.verdicts.find(run.reference_hash);
  const double noise =
      reference == run.verdicts.end() ? 0.0 : reference->second.noise_l1;
  const double delta = reference == run.verdicts.end()
                           ? 0.0
                           : reference->second.reliability_delta;
  s.end_to_end["wall_s"] = Median(wall);
  s.end_to_end["cpu_s"] = Median(cpu);
  s.end_to_end["peak_rss_mb"] = Median(rss);
  s.end_to_end["setup_s"] = Median(run.setup_s);
  s.end_to_end["noise_l1"] = noise;
  s.end_to_end["reliability_delta"] = delta;
  s.end_to_end["failed_frac"] =
      s.attempted == 0 ? 0.0
                       : static_cast<double>(s.failed) /
                             static_cast<double>(s.attempted);
  for (const auto& [name, values] : layers) s.per_layer[name] = Median(values);
  s.per_layer["trace.overhead_frac"] =
      Median(phase_a) / s.end_to_end["wall_s"] - 1.0;
  s.per_layer["noise_l1"] = noise;
  s.per_layer["reliability_delta"] = delta;
  return s;
}

std::string JsonNumber(double value) {
  return std::isfinite(value) ? StrFormat("%.17g", value) : "null";
}

std::string MetricsJson(const std::map<std::string, double>& values,
                        const std::vector<MetricDef>& defs,
                        const std::string& prefix, const char* indent) {
  std::string json;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end() || !std::isfinite(it->second)) continue;
    json += StrFormat("%s%s\"%s%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      json.empty() ? "" : ",", indent, prefix.c_str(),
                      def.name, JsonNumber(it->second).c_str(), def.unit);
  }
  return json;
}

void PrintTable(const std::vector<WorkloadRun>& runs,
                const std::vector<Summary>& summaries, const Config& config) {
  std::printf("\nend-to-end: untraced chameleon_anonymize runs, median over "
              "the passing reps\n%-14s", "workload");
  const std::vector<MetricDef> columns = ReportedEndToEndMetrics();
  for (const MetricDef& def : columns) {
    std::printf(" %20s", StrFormat("%s[%s]", def.name, def.unit).c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("%-14s", runs[i].workload->name);
    for (const MetricDef& def : columns) {
      std::printf(" %20.6g", summaries[i].end_to_end.at(def.name));
    }
    std::printf("\n");
  }
  std::printf("\nwall_s spread\n%-14s %10s %10s %10s %10s %4s\n", "workload",
              "q1", "median", "q3", "max", "n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Summary& s = summaries[i];
    std::printf("%-14s %10.4f %10.4f %10.4f %10.4f %4zu\n",
                runs[i].workload->name, s.wall.q1, s.wall.q2, s.wall.q3,
                s.wall_max, s.wall_n);
  }
  if (config.trace != TraceMode::kOff) {
    std::printf("\nper-layer: traced in-process pass, median over passes\n"
                "%-36s %-6s",
                "metric", "unit");
    for (const WorkloadRun& run : runs) {
      std::printf(" %14s", run.workload->name);
    }
    std::printf("\n");
    for (const MetricDef& def : PerLayerMetrics()) {
      std::printf("%-36s %-6s", def.name, def.unit);
      for (const Summary& s : summaries) {
        const auto it = s.per_layer.find(def.name);
        std::printf(" %14.6g", it == s.per_layer.end() ? kNaN : it->second);
      }
      std::printf("\n");
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const std::string& f : summaries[i].failures) {
      std::printf("FAILED %s %s\n", runs[i].workload->name, f.c_str());
    }
  }
}

std::string ResultsJson(const std::vector<WorkloadRun>& runs,
                        const std::vector<Summary>& summaries,
                        const Config& config) {
  const obs::BuildInfo& build = obs::GetBuildInfo();
  const obs::HostInfo host = obs::GetHostInfo();
  const char* trace = config.trace == TraceMode::kOff    ? "0"
                      : config.trace == TraceMode::kOnly ? "1"
                                                         : "both";
  std::string json = StrFormat(
      "{\n  \"schema\": \"chameleon-bench-e2e-v1\",\n  \"provenance\": {"
      "\"git_sha\": \"%s\", \"git_describe\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s %s\", \"hostname\": \"%s\", \"nproc\": "
      "%lld, \"threads\": %d, \"check_threads\": %d, \"seed\": %llu, "
      "\"reps\": %d, \"seconds\": %.17g, \"trace\": \"%s\"},\n"
      "  \"workloads\": [",
      JsonEscape(build.git_sha).c_str(), JsonEscape(build.git_describe).c_str(),
      JsonEscape(build.build_type).c_str(),
      JsonEscape(build.compiler_id).c_str(),
      JsonEscape(build.compiler_version).c_str(),
      JsonEscape(host.hostname).c_str(),
      static_cast<long long>(host.num_cpus), config.threads,
      config.check_threads, static_cast<unsigned long long>(config.seed),
      config.reps, config.seconds, trace);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    const Summary& s = summaries[i];
    const Workload& w = *run.workload;
    std::string outputs;
    for (const auto& [hash, path] : run.published) {
      outputs += StrFormat("%s\"%s\"", outputs.empty() ? "" : ", ",
                           hash.c_str());
    }
    std::string failures;
    for (const std::string& f : s.failures) {
      failures += StrFormat("%s\"%s\"", failures.empty() ? "" : ", ",
                            JsonEscape(f).c_str());
    }
    json += StrFormat(
        "%s\n    {\"name\": \"%s\", \"why\": \"%s\", \"method\": \"%s\", "
        "\"k\": %.17g, \"eps\": %.17g, \"err_worlds\": %zu,\n"
        "     \"input\": {\"path\": \"%s\", \"sha256\": \"%s\", \"bytes\": "
        "%llu, \"nodes\": %u, \"edges\": %zu, \"cached\": %s},\n"
        "     \"expected_feasible\": %s, \"output_sha256\": [%s],\n"
        "     \"attempted\": %zu, \"failed\": %zu, \"failures\": [%s],\n"
        "     \"wall_s\": {\"q1\": %s, \"median\": %s, \"q3\": %s, \"max\": "
        "%s, \"n\": %zu},\n"
        "     \"end_to_end\": {%s},\n     \"per_layer\": {%s}}",
        i == 0 ? "" : ",", w.name, JsonEscape(w.why).c_str(), w.method, w.k,
        w.epsilon, w.err_worlds, JsonEscape(run.input_path).c_str(),
        run.input_hash.c_str(),
        static_cast<unsigned long long>(run.input_bytes), run.input.nodes,
        run.input.edges.size(), run.input_cached ? "true" : "false",
        !run.expected_feasible.has_value() ? "null"
        : *run.expected_feasible           ? "true"
                                           : "false",
        outputs.c_str(), s.attempted, s.failed, failures.c_str(),
        JsonNumber(s.wall.q1).c_str(), JsonNumber(s.wall.q2).c_str(),
        JsonNumber(s.wall.q3).c_str(), JsonNumber(s.wall_max).c_str(),
        s.wall_n,
        MetricsJson(s.end_to_end, ReportedEndToEndMetrics(), "", " ").c_str(),
        MetricsJson(s.per_layer, PerLayerMetrics(), "", " ").c_str());
  }
  json += "\n  ]\n}\n";
  return json;
}

// ---------------------------------------------------------------------------
// Self-test

int SelfTest() {
  int failed = 0;
  const auto check = [&failed](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failed;
  };

  for (const Workload& w : AllWorkloads()) {
    const std::string a = FormatEdgeList(GenerateGraph(w.graph, 7));
    const std::string b = FormatEdgeList(GenerateGraph(w.graph, 7));
    const std::string c = FormatEdgeList(GenerateGraph(w.graph, 8));
    const Result<EdgeList> parsed = ParseEdgeListText(a);
    std::printf("     %s: %zu bytes, sha256 %s\n", w.name, a.size(),
                Short(Sha256Hex(a)).c_str());
    check(a == b, "generator: same seed gives the same bytes");
    check(a != c, "generator: another seed gives other bytes");
    // The reader rejects self-loops and duplicate pairs, so a clean parse
    // with the full edge count proves the generator emitted neither.
    check(parsed.ok() && parsed->edges.size() == w.graph.edges &&
              parsed->nodes == w.graph.nodes,
          "generator: no self-loops, no duplicate pairs, exact size");
  }
  check(!ParseEdgeListText("# nodes 3\n0 1 0.5\n1 0 0.25\n").ok(),
        "reader: rejects a duplicate pair");
  check(!ParseEdgeListText("# nodes 3\n2 2 0.5\n").ok(),
        "reader: rejects a self-loop");
  check(!ParseEdgeListText("0 1\n").ok(), "reader: rejects a short line");

  const EdgeList g = GenerateGraph(
      GraphSpec{.shape = GraphShape::kErdosRenyi, .nodes = 400, .edges = 600},
      11);
  EdgeList empty = g;
  double mean_p = 0.0;
  for (Edge& e : empty.edges) {
    mean_p += e.p;
    e.p = 0.0;
  }
  mean_p /= static_cast<double>(g.edges.size());
  const ReliabilityComparison same = CompareReliability(g, g, 5);
  const ReliabilityComparison vs_empty = CompareReliability(g, empty, 5);
  check(same.delta == 0.0, "delta: a graph against itself is exactly 0");
  check(vs_empty.delta == vs_empty.mean_reliability_a &&
            vs_empty.delta > 0.0,
        "delta: against an all-p=0 copy equals the mean R_uv");
  check(NoiseL1(g, g) == 0.0, "noise_l1: a graph against itself is 0");
  check(std::fabs(NoiseL1(g, empty) - mean_p) < 1e-12,
        "noise_l1: against an all-p=0 copy equals the mean p");

  const Quartiles q10 = ComputeQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check(q10.q1 == 2.75 && q10.q2 == 5.5 && q10.q3 == 8.25,
        "quartiles: 1..10 gives 2.75 / 5.5 / 8.25");
  const Quartiles q3 = ComputeQuartiles({3, 1, 2});
  check(q3.q1 == 1.0 && q3.q2 == 2.0 && q3.q3 == 3.0,
        "quartiles: {3,1,2} gives 1 / 2 / 3");
  const Quartiles q2 = ComputeQuartiles({5, 1});
  check(q2.q1 == 0.0 && q2.q2 == 3.0 && q2.q3 == 6.0,
        "quartiles: {5,1} extrapolates to 0 / 3 / 6");
  check(Median({4, 1, 3, 2}) == 2.5 && Median({7}) == 7.0 &&
            Median({2, 9, 4}) == 4.0,
        "median: even, single and odd lengths");

  // The 56-byte vector needs a two-block padding tail.
  check(Sha256Hex("") == "e3b0c44298fc1c149afbf4c8996fb924"
                         "27ae41e4649b934ca495991b7852b855" &&
            Sha256Hex("abc") == "ba7816bf8f01cfea414140de5dae2223"
                                "b00361a396177a9cb410ff61f20015ad" &&
            Sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                      "ijkljklmklmnlmnomnopnopq") ==
                "248d6a61d20638b8e5c026930c3e6039"
                "a33ce45964ff2167f6ecedd419db06c1",
        "sha256: FIPS 180 test vectors");

  const auto parsed = ParseJsonObject(
      "{\"schema\": \"x\", \"feasible\": false, \"n\": -1.5e2, "
      "\"nested\": {\"a\": [1, 2, {}]}, \"s\": \"q\\\"\\u0041\"}");
  check(parsed.ok() && !parsed->at("feasible").boolean &&
            parsed->at("n").number == -150.0 &&
            parsed->at("s").text == "q\"A" &&
            parsed->at("nested").kind == JsonMember::Kind::kObject,
        "json: parses strings, numbers, booleans and nesting");
  check(!ParseJsonObject("{\"a\": 1,}").ok() &&
            !ParseJsonObject("{\"a\": 01}").ok() &&
            !ParseJsonObject("{\"a\": 1} x").ok(),
        "json: rejects malformed documents");

  std::printf("%s\n", failed == 0 ? "self-test passed" : "self-test FAILED");
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_bench_e2e: whole-run anonymization benchmark with "
      "layer-isolating workloads and a traced per-layer pass");
  flags.AddString("workloads", "all",
                  "comma-separated workload names, or all");
  flags.AddInt64("seed", static_cast<std::int64_t>(kDefaultSeed),
                 "generates every input; also the program's --seed");
  flags.AddInt64("reps", 5, "minimum untraced runs per workload");
  flags.AddDouble("seconds", 0.0,
                  "keep adding rounds until this many seconds of untraced "
                  "runs (traced passes with --trace=1) have elapsed");
  flags.AddString("trace", "both",
                  "0: untraced runs only; 1: traced passes (plus --reps "
                  "untraced runs); both: one traced pass, then the runs");
  flags.AddString("out", "", "directory for inputs, outputs and results");
  flags.AddBool("self-test", false,
                "check generators, rulers and statistics, then exit");
  flags.AddBool("help", false, "show usage");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "error: %s\n%s", s.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Usage().c_str());
    for (const Workload& w : AllWorkloads()) {
      std::printf("  %-14s %s\n", w.name, w.why);
    }
    return 0;
  }
  if (flags.GetBool("self-test")) return SelfTest();

  Config config;
  config.seed = static_cast<std::uint64_t>(flags.GetInt64("seed"));
  config.reps = static_cast<int>(flags.GetInt64("reps"));
  config.seconds = flags.GetDouble("seconds");
  config.out = flags.GetString("out");
  const std::string& trace = flags.GetString("trace");
  if (trace == "0") {
    config.trace = TraceMode::kOff;
  } else if (trace == "1") {
    config.trace = TraceMode::kOnly;
  } else if (trace != "both") {
    std::fprintf(stderr, "error: --trace must be 0, 1 or both\n");
    return 2;
  }
  if (config.out.empty() || config.reps < 0 || config.seconds < 0.0 ||
      (config.reps == 0 && config.trace == TraceMode::kOff)) {
    std::fprintf(stderr, "error: need --out, --reps >= 0, --seconds >= 0 "
                         "and some runs to make\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  std::vector<WorkloadRun> runs;
  for (const std::string& name :
       SplitTokens(flags.GetString("workloads"), ",")) {
    for (const Workload& w : AllWorkloads()) {
      if (name == "all" || name == w.name) runs.emplace_back(w);
    }
    if (name != "all" &&
        std::none_of(runs.begin(), runs.end(), [&](const WorkloadRun& r) {
          return name == r.workload->name;
        })) {
      std::fprintf(stderr, "error: unknown workload '%s'\n", name.c_str());
      return 2;
    }
  }
  if (runs.empty()) {
    std::fprintf(stderr, "error: no workloads selected\n");
    return 2;
  }

  // One load generator at a time; the program gets at most two workers
  // (more spread five er50k runs over 14% on a 4-CPU host).
  const auto nproc = static_cast<int>(std::max<long long>(
      1, static_cast<long long>(obs::GetHostInfo().num_cpus)));
  config.threads = std::min(2, nproc);
  config.check_threads = std::min(4, nproc);
  // Keep every run dormant: a metrics sink in the environment would add
  // instrumentation cost to the measured runs.
  unsetenv("CHAMELEON_METRICS");

  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::printf("chameleon_bench_e2e  git %s  %s  %s %s  host %s  nproc %d  "
              "threads %d  seed %llu  reps %d  seconds %g  trace %s\n",
              build.git_sha.c_str(), build.build_type.c_str(),
              build.compiler_id.c_str(), build.compiler_version.c_str(),
              obs::GetHostInfo().hostname.c_str(), nproc, config.threads,
              static_cast<unsigned long long>(config.seed), config.reps,
              config.seconds, trace.c_str());

  for (WorkloadRun& run : runs) {
    run.dir = config.out + "/work/" + run.workload->name;
    Status s = MakeDir(run.dir, /*emptied=*/true);
    if (s.ok()) s = PrepareInput(run, config);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    if (config.seed == kDefaultSeed) {
      run.expected_feasible = run.workload->expect_feasible;
    }
    std::printf("input %-14s sha256 %s  %llu bytes%s\n", run.workload->name,
                run.input_hash.c_str(),
                static_cast<unsigned long long>(run.input_bytes),
                run.input_cached ? "  (cached)" : "");
  }
  std::fflush(stdout);

  // The traced pass goes first: it also warms the page cache.
  if (config.trace != TraceMode::kOff) {
    const auto start = std::chrono::steady_clock::now();
    do {
      for (WorkloadRun& run : runs) RunPass(run, config);
    } while (config.trace == TraceMode::kOnly &&
             SecondsSince(start) < config.seconds);
  }
  if (config.trace != TraceMode::kOnly) {
    for (WorkloadRun& run : runs) {
      if (Status s = MeasureSetup(run); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  // Round-robin reps, so slow drift on the host hits every workload alike.
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0;
       round < config.reps || (config.trace != TraceMode::kOnly &&
                               SecondsSince(start) < config.seconds);
       ++round) {
    for (WorkloadRun& run : runs) RunRep(run, config);
  }

  for (WorkloadRun& run : runs) {
    for (const auto& [hash, path] : run.published) {
      run.verdicts[hash] = CheckPublished(run, path, config);
    }
    if (config.trace != TraceMode::kOff) {
      if (Status s = WriteFileAtomic(
              config.out + "/trace_" + run.workload->name + ".json",
              run.recorder.ToJson());
          !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }

  std::vector<Summary> summaries;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const WorkloadRun& run : runs) {
    summaries.push_back(Summarize(run));
    attempted += summaries.back().attempted;
    failed += summaries.back().failed;
  }
  PrintTable(runs, summaries, config);
  const std::string results_path = config.out + "/results.json";
  if (Status s = WriteFileAtomic(results_path,
                                 ResultsJson(runs, summaries, config));
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("results: %s\n", results_path.c_str());

  std::string metrics;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string prefix =
        runs.size() == 1 ? "" : std::string(runs[i].workload->name) + "/";
    for (const std::string& part :
         {config.trace != TraceMode::kOnly
              ? MetricsJson(summaries[i].end_to_end, EndToEndMetrics(),
                            prefix, "")
              : std::string(),
          config.trace != TraceMode::kOff
              ? MetricsJson(summaries[i].per_layer, PerLayerMetrics(), prefix,
                            "")
              : std::string()}) {
      if (part.empty()) continue;
      metrics += (metrics.empty() ? "" : ", ") + part;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace chameleon::bench_e2e

int main(int argc, char** argv) {
  if (argc > 1 && argv[1] == chameleon::bench_e2e::kLaunchFlag) {
    return chameleon::bench_e2e::LaunchMain(argc, argv);
  }
  return chameleon::bench_e2e::Run(argc, argv);
}
