// Chameleon anonymization CLI (paper Algorithms 1-3). Loads an uncertain
// graph, runs one of the Table II variants (RSME / ME / RS / Rep-An)
// through the σ-search driver, and reports the outcome three ways: a
// human summary on stdout, the anonymized edge list (--out), and a
// machine-readable result JSON (--result):
//
//   chameleon_anonymize --graph=examples/graphs/cycle_obfuscated.edges
//       --method=rsme --k=4 --eps=0.2 --out=anon.edges --result=run.json
//   python3 scripts/check_anonymize.py run.json --expect=feasible
//   chameleon_obf_check anon.edges --k=4 --eps=0.2
//
// Exit code 0 means the run completed (feasibility lives in the result
// JSON); 1 is a runtime error, 2 a usage error.

#include <cstdio>
#include <optional>
#include <string>

#include "chameleon/anonymize/chameleon.h"
#include "chameleon/anonymize/rep_an.h"
#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/crash_handler.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/threads_flag.h"

namespace chameleon {
namespace {

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const int close_rc = std::fclose(file);
  if (written != text.size() || close_rc != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

std::string ResultJson(const anonymize::AnonymizeResult& result,
                       const anonymize::ChameleonOptions& options,
                       const graph::UncertainGraph& input,
                       const std::string& graph_path,
                       const std::string& out_path) {
  const auto& cert = result.certificate;
  std::string json = StrFormat(
      "{\n"
      "  \"schema\": \"chameleon-anonymize-v1\",\n"
      "  \"graph\": \"%s\",\n"
      "  \"method\": \"%s\",\n"
      "  \"k\": %.10g,\n"
      "  \"eps\": %.10g,\n"
      "  \"feasible\": %s,\n"
      "  \"sigma\": %.10g,\n"
      "  \"eps_hat\": %.10g,\n"
      "  \"not_obfuscated\": %llu,\n"
      "  \"vertices\": %llu,\n"
      "  \"adversary\": \"%s\",\n",
      JsonEscape(graph_path).c_str(),
      std::string(anonymize::VariantName(result.variant)).c_str(), options.k,
      options.epsilon, result.feasible ? "true" : "false", result.sigma,
      cert.epsilon_hat, static_cast<unsigned long long>(cert.not_obfuscated),
      static_cast<unsigned long long>(cert.vertices),
      std::string(privacy::AdversaryModelName(cert.adversary)).c_str());
  json += StrFormat(
      "  \"nodes\": %llu,\n"
      "  \"edges\": %llu,\n"
      "  \"input_mean_p\": %.10g,\n"
      "  \"published_mean_p\": %.10g,\n"
      "  \"attempts\": %llu,\n"
      "  \"sigma_levels\": %llu,\n"
      "  \"trials\": %llu,\n"
      "  \"perturbed_edges\": %llu,\n"
      "  \"excluded_vertices\": %llu,\n"
      "  \"relevance_worlds\": %llu,\n"
      "  \"relevance_wall_ms\": %.6g,\n"
      "  \"wall_ms\": %.6g,\n"
      "  \"seed\": %llu,\n"
      "  \"out\": \"%s\"\n"
      "}\n",
      static_cast<unsigned long long>(input.num_nodes()),
      static_cast<unsigned long long>(input.num_edges()),
      input.mean_probability(), result.published.mean_probability(),
      static_cast<unsigned long long>(result.attempts),
      static_cast<unsigned long long>(result.trace.empty()
                                          ? 0
                                          : result.trace.back().level + 1),
      static_cast<unsigned long long>(options.trials),
      static_cast<unsigned long long>(result.perturbed_edges),
      static_cast<unsigned long long>(result.excluded_vertices),
      static_cast<unsigned long long>(result.relevance_worlds),
      result.relevance_wall_ms, result.wall_ms,
      static_cast<unsigned long long>(options.seed),
      JsonEscape(out_path).c_str());
  return json;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_anonymize: publish a (k,eps)-obfuscated uncertain graph "
      "via reliability-relevance-guided perturbation (Algorithms 1-3)");
  flags.AddString("graph", "", "edge-list file (or first positional)");
  flags.AddString("method", "rsme",
                  "Table II variant: rsme | me | rs | rep-an");
  flags.AddDouble("k", 100.0, "privacy level: posterior entropy >= log2(k)");
  flags.AddDouble("eps", 1e-4,
                  "tolerated fraction of non-k-obfuscated vertices");
  flags.AddInt64("trials", 3, "randomized GenObf attempts per sigma level");
  flags.AddInt64("err_worlds", 200,
                 "sampled worlds for the reused-sampling relevance "
                 "estimator (RSME/RS)");
  flags.AddDouble("candidate_fraction", 0.3,
                  "candidate edge set size as a fraction of |E|");
  flags.AddDouble("white_noise", 0.01,
                  "per-candidate probability of a uniform escape draw");
  flags.AddDouble("sigma_init", 0.05, "first sigma level tried");
  flags.AddDouble("sigma_max", 1.0, "expansion cap for the sigma search");
  flags.AddInt64("refine", 5, "bisection rounds after the first success");
  flags.AddString("adversary", "expected",
                  "knowledge model: expected (round E[deg v]) | structural "
                  "(incident edge count); rep-an always uses structural");
  flags.AddDouble("bandwidth", 0.0,
                  "uniqueness kernel bandwidth (0 = Silverman's rule)");
  flags.AddInt64("seed", 2018, "master seed for every stochastic choice");
  AddThreadsFlag(flags);
  flags.AddString("out", "", "write the anonymized edge list here");
  flags.AddString("result", "", "write the result JSON here");
  obs::AddObsFlags(flags);
  if (const std::optional<int> exit_code = obs::ParseToolFlags(
          flags, "chameleon_anonymize", argc, argv)) {
    return *exit_code;
  }

  std::string graph_path = flags.GetString("graph");
  if (graph_path.empty() && !flags.positional().empty()) {
    graph_path = flags.positional().front();
  }
  if (graph_path.empty()) {
    std::fprintf(stderr, "error: no --graph\n%s", flags.Usage().c_str());
    return 2;
  }

  const Result<anonymize::Variant> variant =
      anonymize::ParseVariant(flags.GetString("method"));
  if (!variant.ok()) {
    std::fprintf(stderr, "error: %s\n", variant.status().ToString().c_str());
    return 2;
  }

  // Counts become size_t below, where −1 would read as SIZE_MAX.
  for (const char* count : {"trials", "err_worlds", "refine"}) {
    if (flags.GetInt64(count) < 0) {
      std::fprintf(stderr, "error: --%s must be >= 0, got %lld\n%s", count,
                   static_cast<long long>(flags.GetInt64(count)),
                   flags.Usage().c_str());
      return 2;
    }
  }

  anonymize::ChameleonOptions options;
  options.k = flags.GetDouble("k");
  options.epsilon = flags.GetDouble("eps");
  options.trials = static_cast<std::size_t>(flags.GetInt64("trials"));
  options.relevance_worlds =
      static_cast<std::size_t>(flags.GetInt64("err_worlds"));
  options.candidate_fraction = flags.GetDouble("candidate_fraction");
  options.white_noise = flags.GetDouble("white_noise");
  options.sigma_init = flags.GetDouble("sigma_init");
  options.sigma_max = flags.GetDouble("sigma_max");
  options.refine_iters = static_cast<std::size_t>(flags.GetInt64("refine"));
  options.uniqueness_bandwidth = flags.GetDouble("bandwidth");
  options.seed = static_cast<std::uint64_t>(flags.GetInt64("seed"));
  options.threads = ResolvedThreads(flags);
  const std::string& adversary = flags.GetString("adversary");
  if (adversary == "expected") {
    options.adversary = privacy::AdversaryModel::kRoundedExpectedDegree;
  } else if (adversary == "structural") {
    options.adversary = privacy::AdversaryModel::kStructuralDegree;
  } else {
    std::fprintf(stderr, "error: unknown --adversary=%s\n",
                 adversary.c_str());
    return 2;
  }

  if (Status s = obs::InstallCrashHandler(); !s.ok()) {
    std::fprintf(stderr, "warning: crash forensics disabled: %s\n",
                 s.ToString().c_str());
  }

  if (Status s = obs::InitObservability(obs::ObsOptionsFromFlags(flags));
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  obs::RunManifest manifest =
      obs::RunManifest::Capture("chameleon_anonymize", argc, argv);
  manifest.AddParam("graph", graph_path);
  manifest.AddParam("method", flags.GetString("method"));
  manifest.AddParam("k", StrFormat("%.10g", options.k));
  manifest.AddParam("eps", StrFormat("%.10g", options.epsilon));
  manifest.AddParam("seed", StrFormat("%llu",
                                      static_cast<unsigned long long>(
                                          options.seed)));
  manifest.AddParam("threads", StrFormat("%d", options.threads));
  obs::EmitRunManifest(manifest);

  const Result<graph::UncertainGraph> graph =
      graph::ReadEdgeList(graph_path, options.threads);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  const Result<anonymize::AnonymizeResult> result =
      anonymize::Anonymize(*graph, *variant, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stdout, "graph: %u nodes, %zu edges (%s)\n",
               graph->num_nodes(), graph->num_edges(), graph_path.c_str());
  std::fprintf(stdout,
               "%s (k=%.4g, eps=%.4g): %s  sigma=%.6g eps_hat=%.6g "
               "(%zu attempts across %zu levels, %.2f ms)\n",
               std::string(anonymize::VariantName(result->variant)).c_str(),
               options.k, options.epsilon,
               result->feasible ? "FEASIBLE" : "INFEASIBLE", result->sigma,
               result->certificate.epsilon_hat, result->attempts,
               result->trace.empty() ? std::size_t{0}
                                     : result->trace.back().level + 1,
               result->wall_ms);
  std::fprintf(stdout,
               "perturbed %zu edges, excluded %zu hardest vertices; "
               "mean p %.4g -> %.4g\n",
               result->perturbed_edges, result->excluded_vertices,
               graph->mean_probability(),
               result->published.mean_probability());

  const std::string& out = flags.GetString("out");
  if (!out.empty()) {
    if (result->feasible) {
      if (Status s = graph::WriteEdgeList(result->published, out,
                                          options.threads);
          !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
      std::fprintf(stdout, "anonymized edge list: %s\n", out.c_str());
    } else {
      std::fprintf(stdout,
                   "no anonymized edge list written (search infeasible)\n");
    }
  }
  const std::string& result_path = flags.GetString("result");
  if (!result_path.empty()) {
    if (Status s = WriteTextFile(
            result_path, ResultJson(*result, options, *graph, graph_path,
                                    result->feasible ? out : ""));
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stdout, "result json: %s\n", result_path.c_str());
  }

  obs::ShutdownObservability();
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
