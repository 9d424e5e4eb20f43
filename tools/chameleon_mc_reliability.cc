// Monte Carlo reliability driver with full observability. Loads an edge
// list (or generates a seeded random uncertain graph), estimates
// two-terminal reliability and the expected number of connected pairs,
// and — when --metrics_out / CHAMELEON_METRICS is set — emits a JSONL
// trace consumable by chameleon_obs_dump:
//
//   chameleon_mc_reliability --nodes=200 --avg_degree=4 --worlds=1000
//       --metrics_out=run.jsonl
//   chameleon_obs_dump run.jsonl

#include <cstdint>
#include <cstdio>
#include <optional>

#include "chameleon/graph/generators.h"
#include "chameleon/graph/io.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/crash_handler.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/reliability/reliability.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/threads_flag.h"

namespace chameleon {
namespace {

/// Checks the count and terminal flags on the int64 each holds, before
/// any cast: cast first, --worlds=-1 would read as 2^64-1 worlds,
/// --min_samples=-1 would turn early stopping off, and
/// --source=4294967296 would name vertex 0.
Status CheckCountsAndTerminals(const FlagSet& flags, NodeId num_nodes) {
  if (const std::int64_t worlds = flags.GetInt64("worlds"); worlds < 1) {
    return Status::InvalidArgument(
        StrFormat("--worlds=%lld must be positive",
                  static_cast<long long>(worlds)));
  }
  if (const std::int64_t min_samples = flags.GetInt64("min_samples");
      min_samples < 0) {
    return Status::InvalidArgument(
        StrFormat("--min_samples=%lld must be >= 0",
                  static_cast<long long>(min_samples)));
  }
  for (const char* terminal : {"source", "target"}) {
    const std::int64_t v = flags.GetInt64(terminal);
    if (v < 0 || v >= static_cast<std::int64_t>(num_nodes)) {
      return Status::InvalidArgument(
          StrFormat("--%s=%lld is not a vertex of the %u-node graph",
                    terminal, static_cast<long long>(v), num_nodes));
    }
  }
  return Status::OK();
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_mc_reliability: instrumented Monte Carlo reliability "
      "estimation on an uncertain graph");
  flags.AddString("graph", "", "edge-list file (empty: random graph)");
  flags.AddInt64("nodes", 200, "random graph: node count");
  flags.AddDouble("avg_degree", 4.0, "random graph: average degree");
  flags.AddDouble("p_min", 0.1, "random graph: min edge probability");
  flags.AddDouble("p_max", 0.9, "random graph: max edge probability");
  flags.AddInt64("source", 0, "source terminal");
  flags.AddInt64("target", 1, "target terminal");
  flags.AddInt64("worlds", 1000, "max possible worlds per estimate");
  flags.AddInt64("seed", 2018, "random seed");
  AddThreadsFlag(flags);
  flags.AddDouble("target_ci_halfwidth", 0.0,
                  "stop early once the 95% CI half-width reaches this "
                  "absolute value (0 = off)");
  flags.AddDouble("max_rel_err", 0.0,
                  "stop early once CI half-width <= max_rel_err * estimate "
                  "(0 = off)");
  flags.AddInt64("min_samples", 100,
                 "no early-stop decision before this many worlds");
  flags.AddBool("connected_pairs", true,
                "also estimate E[#connected pairs]");
  obs::AddObsFlags(flags);
  if (const std::optional<int> exit_code = obs::ParseToolFlags(
          flags, "chameleon_mc_reliability", argc, argv)) {
    return *exit_code;
  }

  // Crash forensics before anything heavy runs: a SIGSEGV from here on
  // leaves a `crash` record and a signal-stamped run_summary in the
  // JSONL stream (or at least a symbolized backtrace on stderr).
  if (Status s = obs::InstallCrashHandler(); !s.ok()) {
    std::fprintf(stderr, "warning: crash forensics disabled: %s\n",
                 s.ToString().c_str());
  }

  // The Monte Carlo estimators themselves stay serial (one RNG stream,
  // reproducible numerics); the shared --threads flag steers the
  // parallel library paths they call into, via the process default.
  const int threads = ResolvedThreads(flags);
  SetDefaultThreads(threads);

  if (Status s = obs::InitObservability(obs::ObsOptionsFromFlags(flags));
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  // First record of the stream: full run provenance (build, argv, seed).
  obs::RunManifest manifest =
      obs::RunManifest::Capture("chameleon_mc_reliability", argc, argv);
  manifest.AddSeed("rng", static_cast<std::uint64_t>(flags.GetInt64("seed")));
  manifest.AddParam("worlds", StrFormat("%lld", static_cast<long long>(
                                                    flags.GetInt64("worlds"))));
  manifest.AddParam("graph", flags.GetString("graph").empty()
                                 ? "random"
                                 : flags.GetString("graph"));
  manifest.AddParam("threads", StrFormat("%d", threads));
  obs::EmitRunManifest(manifest);

  Rng rng(static_cast<std::uint64_t>(flags.GetInt64("seed")));
  Result<graph::UncertainGraph> graph = [&]() -> Result<graph::UncertainGraph> {
    CHOBS_SPAN(span, "mc_reliability/load_graph");
    if (!flags.GetString("graph").empty()) {
      return graph::ReadEdgeList(flags.GetString("graph"));
    }
    graph::RandomGraphOptions random;
    random.nodes = flags.GetInt64("nodes");
    random.avg_degree = flags.GetDouble("avg_degree");
    random.p_min = flags.GetDouble("p_min");
    random.p_max = flags.GetDouble("p_max");
    return graph::RandomGraph(random, rng);
  }();
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stdout, "graph: %u nodes, %zu edges, mean p %.3f\n",
               graph->num_nodes(), graph->num_edges(),
               graph->mean_probability());

  if (Status s = CheckCountsAndTerminals(flags, graph->num_nodes());
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  rel::MonteCarloOptions mc;
  mc.worlds = static_cast<std::size_t>(flags.GetInt64("worlds"));
  mc.target_ci_halfwidth = flags.GetDouble("target_ci_halfwidth");
  mc.max_rel_err = flags.GetDouble("max_rel_err");
  mc.min_samples = static_cast<std::size_t>(flags.GetInt64("min_samples"));
  const auto source = static_cast<NodeId>(flags.GetInt64("source"));
  const auto target = static_cast<NodeId>(flags.GetInt64("target"));

  const Result<rel::ReliabilityEstimate> reliability =
      rel::EstimateTwoTerminalReliability(*graph, source, target, mc, rng);
  if (!reliability.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reliability.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "R(%u, %u) = %.4f +/- %.4f  (%zu worlds%s)\n", source,
               target, reliability->reliability, reliability->ci_halfwidth,
               reliability->worlds,
               reliability->stopped_early ? ", stopped early" : "");

  if (flags.GetBool("connected_pairs")) {
    const Result<rel::ConnectedPairsEstimate> pairs =
        rel::ExpectedConnectedPairs(*graph, mc, rng);
    if (!pairs.ok()) {
      std::fprintf(stderr, "error: %s\n", pairs.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stdout,
                 "E[#connected pairs] = %.1f +/- %.1f (stddev %.1f, "
                 "%zu worlds%s)\n",
                 pairs->expected_pairs, pairs->ci_halfwidth, pairs->stddev,
                 pairs->worlds,
                 pairs->stopped_early ? ", stopped early" : "");
  }

  obs::ShutdownObservability();
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
