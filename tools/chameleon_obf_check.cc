// (k,ε)-obfuscation verifier CLI. Loads an uncertain graph, runs the
// privacy core (Poisson-binomial degree distributions -> adversary
// posteriors -> per-vertex k-obfuscation), and reports the verdict
// three ways: a human summary on stdout, a machine-readable verdict
// JSON (--out), and a per-vertex CSV (--csv) carrying entropy,
// effective anonymity, and uniqueness scores:
//
//   chameleon_obf_check --graph=examples/graphs/cycle_obfuscated.edges
//       --k=8 --eps=0.01 --out=verdict.json --csv=vertices.csv
//   python3 scripts/check_obf.py verdict.json --expect=obfuscated
//
// Exit code 0 means the check ran (the verdict lives in the outputs);
// 1 is a runtime error, 2 a usage error.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/crash_handler.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/privacy/uniqueness.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/threads_flag.h"
#include "chameleon/util/string_util.h"

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

std::string VerdictJson(const privacy::ObfuscationCertificate& cert,
                        const graph::UncertainGraph& graph,
                        const std::string& graph_path,
                        const privacy::UniquenessScores& uniqueness) {
  RunningStats u_stats;
  for (const double u : uniqueness.scores) u_stats.Add(u);
  std::string json = StrFormat(
      "{\n"
      "  \"schema\": \"chameleon-obf-check-v1\",\n"
      "  \"graph\": \"%s\",\n"
      "  \"nodes\": %llu,\n"
      "  \"edges\": %llu,\n"
      "  \"k\": %.10g,\n"
      "  \"eps\": %.10g,\n"
      "  \"eps_hat\": %.10g,\n"
      "  \"obfuscated\": %s,\n"
      "  \"vertices\": %llu,\n"
      "  \"not_obfuscated\": %llu,\n"
      "  \"required_bits\": %.10g,\n"
      "  \"min_entropy_bits\": %.10g,\n"
      "  \"mean_entropy_bits\": %.10g,\n"
      "  \"distinct_omegas\": %llu,\n"
      "  \"adversary\": \"%s\",\n"
      "  \"threads\": %d,\n"
      "  \"wall_ms\": %.6g,\n",
      JsonEscape(graph_path).c_str(),
      static_cast<unsigned long long>(graph.num_nodes()),
      static_cast<unsigned long long>(graph.num_edges()), cert.k,
      cert.epsilon, cert.epsilon_hat, cert.obfuscated ? "true" : "false",
      static_cast<unsigned long long>(cert.vertices),
      static_cast<unsigned long long>(cert.not_obfuscated),
      std::log2(cert.k), cert.min_entropy_bits, cert.mean_entropy_bits,
      static_cast<unsigned long long>(cert.distinct_omegas),
      std::string(privacy::AdversaryModelName(cert.adversary)).c_str(),
      cert.threads, cert.wall_ms);
  json += StrFormat(
      "  \"uniqueness\": {\"bandwidth\": %.10g, \"mean\": %.10g, "
      "\"max\": %.10g}\n}\n",
      uniqueness.bandwidth, u_stats.mean(), u_stats.max());
  return json;
}

std::string PerVertexCsv(const privacy::ObfuscationCertificate& cert,
                         const graph::UncertainGraph& graph,
                         const privacy::UniquenessScores& uniqueness) {
  std::string csv =
      "vertex,expected_degree,omega,entropy_bits,k_anonymity,obfuscated,"
      "uniqueness\n";
  for (const privacy::VertexObfuscation& row : cert.per_vertex) {
    csv += StrFormat("%u,%.10g,%llu,%.10g,%.10g,%d,%.10g\n", row.vertex,
                     graph.expected_degree(row.vertex),
                     static_cast<unsigned long long>(row.omega),
                     row.entropy_bits, row.k_anonymity,
                     row.obfuscated ? 1 : 0, uniqueness.scores[row.vertex]);
  }
  return csv;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_obf_check: verify (k,eps)-obfuscation of an uncertain "
      "graph and emit a machine-readable certificate");
  flags.AddString("graph", "", "edge-list file (or first positional)");
  flags.AddDouble("k", 100.0, "privacy level: posterior entropy >= log2(k)");
  flags.AddDouble("eps", 1e-4,
                  "tolerated fraction of non-k-obfuscated vertices");
  flags.AddString("adversary", "expected",
                  "knowledge model: expected (round E[deg v]) | structural "
                  "(incident edge count)");
  AddThreadsFlag(flags);
  flags.AddString("out", "", "write the verdict JSON here");
  flags.AddString("csv", "", "write the per-vertex CSV here");
  flags.AddDouble("bandwidth", 0.0,
                  "uniqueness kernel bandwidth (0 = Silverman's rule)");
  obs::AddObsFlags(flags);
  if (const std::optional<int> exit_code = obs::ParseToolFlags(
          flags, "chameleon_obf_check", argc, argv)) {
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

  privacy::ObfuscationOptions options;
  options.k = flags.GetDouble("k");
  options.epsilon = flags.GetDouble("eps");
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
  privacy::UniquenessOptions uniqueness_options;
  uniqueness_options.bandwidth = flags.GetDouble("bandwidth");
  uniqueness_options.threads = options.threads;

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
      obs::RunManifest::Capture("chameleon_obf_check", argc, argv);
  manifest.AddParam("graph", graph_path);
  manifest.AddParam("k", StrFormat("%.10g", options.k));
  manifest.AddParam("eps", StrFormat("%.10g", options.epsilon));
  manifest.AddParam("threads", StrFormat("%d", options.threads));
  obs::EmitRunManifest(manifest);

  const Result<graph::UncertainGraph> graph =
      graph::ReadEdgeList(graph_path, options.threads);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  const Result<privacy::ObfuscationCertificate> cert =
      privacy::VerifyObfuscation(*graph, options);
  if (!cert.ok()) {
    std::fprintf(stderr, "error: %s\n", cert.status().ToString().c_str());
    return 1;
  }
  const Result<privacy::UniquenessScores> uniqueness =
      privacy::ComputeUniqueness(*graph, uniqueness_options);
  if (!uniqueness.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 uniqueness.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stdout, "graph: %u nodes, %zu edges (%s)\n",
               graph->num_nodes(), graph->num_edges(), graph_path.c_str());
  std::fprintf(stdout,
               "(k=%.4g, eps=%.4g)-obfuscation: %s  "
               "(eps_hat=%.6g, %zu/%zu vertices below log2(k)=%.4g bits)\n",
               cert->k, cert->epsilon,
               cert->obfuscated ? "SATISFIED" : "VIOLATED",
               cert->epsilon_hat, cert->not_obfuscated, cert->vertices,
               std::log2(cert->k));
  std::fprintf(stdout,
               "posterior entropy: min %.4g bits, mean %.4g bits over %zu "
               "distinct knowledge values (%d threads, %.2f ms)\n",
               cert->min_entropy_bits, cert->mean_entropy_bits,
               cert->distinct_omegas, cert->threads, cert->wall_ms);

  const std::string& out = flags.GetString("out");
  if (!out.empty()) {
    if (Status s = WriteTextFile(
            out, VerdictJson(*cert, *graph, graph_path, *uniqueness));
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stdout, "verdict json: %s\n", out.c_str());
  }
  const std::string& csv = flags.GetString("csv");
  if (!csv.empty()) {
    if (Status s =
            WriteTextFile(csv, PerVertexCsv(*cert, *graph, *uniqueness));
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stdout, "per-vertex csv: %s\n", csv.c_str());
  }

  obs::ShutdownObservability();
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
