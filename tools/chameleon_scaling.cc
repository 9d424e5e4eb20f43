// Parallel-scalability harness. Runs one workload — the (k,eps)
// obfuscation verifier, the Poisson-binomial PMF build, or Monte Carlo
// world sampling — at each worker count in --threads_list, measures
// wall time over --reps repetitions, and reports speedup/efficiency per
// count plus fitted serial-fraction models (Amdahl and the Universal
// Scalability Law). Every timed rep runs inside a `scaling[t<T>][r<R>]`
// span, so the `parallel_region` records in the JSONL stream
// (--metrics_out) attribute each fork-join region to its sweep point;
// scripts/check_scaling.py cross-checks the emitted JSON against those
// records and can gate on a minimum 2-worker speedup in CI:
//
//   chameleon_scaling --workload=obf_verify --nodes=20000
//       --threads_list=1,2,4 --out=scaling.json --metrics_out=obs.jsonl
//   python3 scripts/check_scaling.py scaling.json --obs=obs.jsonl
//
// Exit code 0 means the sweep ran (verdicts live in the outputs);
// 1 is a runtime error, 2 a usage error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/graph/generators.h"
#include "chameleon/graph/uncertain_graph.h"
#include "chameleon/obs/hw_counters.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/parallel_stats.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/privacy/degree_distribution.h"
#include "chameleon/privacy/obfuscation.h"
#include "chameleon/reliability/world_sampler.h"
#include "chameleon/util/bitvector.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/parallel.h"
#include "chameleon/util/rng.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/threads_flag.h"
#include "chameleon/util/timer.h"

namespace chameleon {
namespace {

/// Monte Carlo workload: sample --mc_worlds possible worlds in parallel
/// blocks and accumulate the edges-present total. Per-block RNGs seeded
/// from (seed, block) and partials merged in block order keep the total
/// worker-count independent, like every other sweep in the library.
std::uint64_t SampleWorldsParallel(const rel::WorldSampler& sampler,
                                   std::size_t worlds, std::uint64_t seed,
                                   int threads) {
  constexpr std::size_t kWorldBlock = 64;
  std::vector<std::uint64_t> block_edges(NumBlocks(worlds, kWorldBlock), 0);
  ParallelForBlocks(
      worlds, kWorldBlock, threads,
      [&](std::size_t block, std::size_t begin, std::size_t end) {
        Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (block + 1)));
        BitVector mask(sampler.num_edges());
        std::uint64_t present = 0;
        for (std::size_t w = begin; w < end; ++w) {
          present += sampler.SampleMask(rng, mask);
        }
        block_edges[block] = present;
      });
  std::uint64_t total = 0;
  for (const std::uint64_t e : block_edges) total += e;
  return total;
}

struct SweepRow {
  int threads = 0;              ///< requested (--threads_list entry)
  std::uint64_t workers = 0;    ///< observed after clamps (from telemetry)
  std::uint64_t reps = 0;
  std::uint64_t wall_ns_median = 0;
  std::uint64_t wall_ns_min = 0;
  double speedup = 0.0;     ///< wall_median(t=1) / wall_median(t)
  double efficiency = 0.0;  ///< speedup / threads
  std::uint64_t regions = 0;  ///< parallel_region records this row produced
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t overhead_ns = 0;
  double max_imbalance = 0.0;
  /// Hardware-counter sums over this row's regions (0 = engine off).
  std::uint64_t hw_cycles = 0;
  std::uint64_t hw_instructions = 0;
  std::uint64_t hw_cache_refs = 0;
  std::uint64_t hw_cache_misses = 0;

  bool HasHw() const { return hw_cycles > 0 && hw_instructions > 0; }
  double Ipc() const {
    return hw_cycles > 0 ? static_cast<double>(hw_instructions) /
                               static_cast<double>(hw_cycles)
                         : 0.0;
  }
  double CacheMissRate() const {
    return hw_cache_refs > 0 ? static_cast<double>(hw_cache_misses) /
                                   static_cast<double>(hw_cache_refs)
                             : 0.0;
  }
};

/// Bandwidth-saturation diagnosis over the sweep: IPC that degrades as
/// efficiency drops means the extra workers stall on the memory system
/// rather than queue on locks — more threads are re-dividing the same
/// memory bandwidth. Verdicts: "bandwidth-saturated" when the widest
/// row's efficiency fell under 0.75 while its IPC fell under 90% of the
/// single-thread IPC; "no-saturation" when hw data exists but that
/// pattern is absent; "unavailable" without counters on both endpoints.
std::string BandwidthVerdict(const std::vector<SweepRow>& rows) {
  const SweepRow* base = nullptr;
  const SweepRow* widest = nullptr;
  for (const SweepRow& row : rows) {
    if (!row.HasHw()) continue;
    if (row.threads == 1 && base == nullptr) base = &row;
    if (widest == nullptr || row.threads > widest->threads) widest = &row;
  }
  if (base == nullptr || widest == nullptr || widest->threads <= 1) {
    return "unavailable";
  }
  const bool ipc_degraded = widest->Ipc() < 0.9 * base->Ipc();
  const bool efficiency_dropped = widest->efficiency < 0.75;
  return ipc_degraded && efficiency_dropped ? "bandwidth-saturated"
                                            : "no-saturation";
}

struct ScalingFit {
  double amdahl_serial_fraction = 0.0;  ///< mean of per-point estimates
  double usl_sigma = 0.0;               ///< contention coefficient
  double usl_kappa = 0.0;               ///< coherency coefficient
  bool valid = false;  ///< needs at least one multi-thread point
};

/// Per-point Amdahl serial fractions s_p = (p/S - 1)/(p - 1), averaged,
/// plus a coarse grid fit of the Universal Scalability Law
/// S(p) = p / (1 + sigma (p-1) + kappa p (p-1)).
ScalingFit FitScaling(const std::vector<SweepRow>& rows) {
  ScalingFit fit;
  std::vector<std::pair<double, double>> points;  // (p, S)
  for (const SweepRow& row : rows) {
    if (row.threads > 1 && row.speedup > 0.0) {
      points.emplace_back(static_cast<double>(row.threads), row.speedup);
    }
  }
  if (points.empty()) return fit;
  fit.valid = true;

  double serial_sum = 0.0;
  for (const auto& [p, s] : points) {
    serial_sum += std::clamp((p / s - 1.0) / (p - 1.0), 0.0, 1.0);
  }
  fit.amdahl_serial_fraction = serial_sum / static_cast<double>(points.size());

  double best_err = -1.0;
  for (int si = 0; si <= 200; ++si) {
    const double sigma = static_cast<double>(si) * 0.005;  // [0, 1]
    for (int ki = 0; ki <= 200; ++ki) {
      const double kappa = static_cast<double>(ki) * 0.0005;  // [0, 0.1]
      double err = 0.0;
      for (const auto& [p, s] : points) {
        const double model =
            p / (1.0 + sigma * (p - 1.0) + kappa * p * (p - 1.0));
        err += (model - s) * (model - s);
      }
      if (best_err < 0.0 || err < best_err) {
        best_err = err;
        fit.usl_sigma = sigma;
        fit.usl_kappa = kappa;
      }
    }
  }
  return fit;
}

std::uint64_t MedianNanos(std::vector<std::uint64_t> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

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

std::string ScalingJson(const std::string& workload,
                        const graph::UncertainGraph& graph,
                        const FlagSet& flags,
                        const std::vector<SweepRow>& rows,
                        const ScalingFit& fit,
                        const std::string& bandwidth_verdict) {
  const obs::HostInfo host = obs::GetHostInfo();
  std::string json = StrFormat(
      "{\n"
      "  \"schema\": \"chameleon-scaling-v1\",\n"
      "  \"workload\": \"%s\",\n"
      "  \"host\": {\"hostname\": \"%s\", \"cpus\": %lld},\n"
      "  \"params\": {\"nodes\": %u, \"edges\": %llu, \"avg_degree\": %.6g, "
      "\"seed\": %lld, \"reps\": %lld, \"mc_worlds\": %lld, \"k\": %.6g, "
      "\"eps\": %.6g},\n"
      "  \"rows\": [\n",
      JsonEscape(workload).c_str(), JsonEscape(host.hostname).c_str(),
      static_cast<long long>(host.num_cpus), graph.num_nodes(),
      static_cast<unsigned long long>(graph.num_edges()),
      flags.GetDouble("avg_degree"),
      static_cast<long long>(flags.GetInt64("seed")),
      static_cast<long long>(flags.GetInt64("reps")),
      static_cast<long long>(flags.GetInt64("mc_worlds")),
      flags.GetDouble("k"), flags.GetDouble("eps"));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    json += StrFormat(
        "    {\"threads\": %d, \"workers\": %llu, \"reps\": %llu, "
        "\"wall_ns_median\": %llu, \"wall_ns_min\": %llu, "
        "\"speedup\": %.4f, \"efficiency\": %.4f, \"regions\": %llu, "
        "\"busy_ns\": %llu, \"idle_ns\": %llu, \"overhead_ns\": %llu, "
        "\"max_imbalance\": %.4f, \"ipc\": %s, \"cache_miss_rate\": %s}%s\n",
        row.threads, static_cast<unsigned long long>(row.workers),
        static_cast<unsigned long long>(row.reps),
        static_cast<unsigned long long>(row.wall_ns_median),
        static_cast<unsigned long long>(row.wall_ns_min), row.speedup,
        row.efficiency, static_cast<unsigned long long>(row.regions),
        static_cast<unsigned long long>(row.busy_ns),
        static_cast<unsigned long long>(row.idle_ns),
        static_cast<unsigned long long>(row.overhead_ns), row.max_imbalance,
        row.HasHw() ? StrFormat("%.4f", row.Ipc()).c_str() : "null",
        row.HasHw() ? StrFormat("%.6f", row.CacheMissRate()).c_str() : "null",
        i + 1 < rows.size() ? "," : "");
  }
  json += StrFormat(
      "  ],\n"
      "  \"bandwidth_verdict\": \"%s\",\n"
      "  \"fit\": {\"valid\": %s, \"amdahl_serial_fraction\": %.6f, "
      "\"usl_sigma\": %.6f, \"usl_kappa\": %.6f}\n"
      "}\n",
      JsonEscape(bandwidth_verdict).c_str(), fit.valid ? "true" : "false",
      fit.amdahl_serial_fraction, fit.usl_sigma, fit.usl_kappa);
  return json;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_scaling: sweep worker counts over one parallel workload, "
      "measure speedup/efficiency, and fit Amdahl/USL serial fractions");
  flags.AddString("workload", "obf_verify",
                  "obf_verify (posterior sweep, dists precomputed) | "
                  "pb_build (Poisson-binomial PMF build) | "
                  "mc_reliability (Monte Carlo world sampling)");
  flags.AddInt64("nodes", 20000, "random graph: node count");
  flags.AddDouble("avg_degree", 8.0, "random graph: average degree");
  flags.AddDouble("p_min", 0.1, "random graph: min edge probability");
  flags.AddDouble("p_max", 0.9, "random graph: max edge probability");
  flags.AddInt64("seed", 2018, "random seed (graph + MC worlds)");
  flags.AddString("threads_list", "",
                  "comma-separated worker counts to sweep (empty: powers of "
                  "two up to --threads, or the hardware concurrency)");
  AddThreadsFlag(flags);
  flags.AddInt64("reps", 5, "timed repetitions per worker count");
  flags.AddInt64("mc_worlds", 8192, "mc_reliability: worlds per rep");
  flags.AddDouble("k", 100.0, "obf_verify: privacy level");
  flags.AddDouble("eps", 0.01, "obf_verify: tolerated violation fraction");
  flags.AddString("out", "", "write the chameleon-scaling-v1 JSON here");
  flags.AddString("metrics_out", "",
                  "JSONL metrics/trace sink (also: $CHAMELEON_METRICS)");
  flags.AddBool("hw_counters", true,
                "attribute hardware counters (perf_event_open) to workers "
                "for per-row IPC / cache-miss-rate columns and the "
                "bandwidth-saturation verdict; degrades to a "
                "hw_counters_unavailable note when the kernel refuses");
  if (const std::optional<int> exit_code =
          obs::ParseToolFlags(flags, "chameleon_scaling", argc, argv)) {
    return *exit_code;
  }

  const std::string& workload = flags.GetString("workload");
  if (workload != "obf_verify" && workload != "pb_build" &&
      workload != "mc_reliability") {
    std::fprintf(stderr, "error: unknown --workload=%s\n", workload.c_str());
    return 2;
  }

  std::vector<int> thread_counts;
  const std::string& threads_list = flags.GetString("threads_list");
  if (threads_list.empty()) {
    // The shared --threads flag caps the default sweep (hardware
    // concurrency when unset), same resolution as every other tool.
    const int hw = ResolvedThreads(flags);
    for (int t = 1; t <= hw; t *= 2) thread_counts.push_back(t);
    if (thread_counts.back() != hw) thread_counts.push_back(hw);
  } else {
    for (const std::string& token : SplitTokens(threads_list, ", ")) {
      const Result<std::int64_t> parsed = ParseInt(token);
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr, "error: bad --threads_list entry '%s'\n",
                     token.c_str());
        return 2;
      }
      thread_counts.push_back(static_cast<int>(*parsed));
    }
  }
  if (thread_counts.empty() || thread_counts.front() != 1) {
    // Speedup is relative to the t=1 row, so the sweep must measure it.
    thread_counts.insert(thread_counts.begin(), 1);
  }

  if (Status s = obs::InstallCrashForensics(); !s.ok()) {
    std::fprintf(stderr, "warning: crash forensics disabled: %s\n",
                 s.ToString().c_str());
  }
  obs::ObsOptions obs_options;
  obs_options.metrics_out = flags.GetString("metrics_out");
  obs_options.hw_counters = flags.GetBool("hw_counters");
  if (Status s = obs::InitObservability(obs_options); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  obs::RunManifest manifest =
      obs::RunManifest::Capture("chameleon_scaling", argc, argv);
  manifest.AddSeed("rng", static_cast<std::uint64_t>(flags.GetInt64("seed")));
  manifest.AddParam("workload", workload);
  {
    std::string list;
    for (const int t : thread_counts) {
      list += StrFormat("%s%d", list.empty() ? "" : ",", t);
    }
    manifest.AddParam("threads_list", list);
  }
  manifest.AddParam("threads", StrFormat("%d", ResolvedThreads(flags)));
  obs::EmitRunManifest(manifest);

  // Setup (graph build + per-workload precomputation) runs under its own
  // span so its parallel regions never mix with the timed sweep's.
  Rng rng(static_cast<std::uint64_t>(flags.GetInt64("seed")));
  Result<graph::UncertainGraph> graph = [&]() -> Result<graph::UncertainGraph> {
    CHOBS_SPAN(span, "scaling_setup");
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

  std::vector<privacy::DegreeDistribution> dists;
  std::unique_ptr<rel::WorldSampler> sampler;
  if (workload == "obf_verify") {
    CHOBS_SPAN(span, "scaling_setup");
    dists = privacy::BuildDegreeDistributions(*graph, 0);
  } else if (workload == "mc_reliability") {
    sampler = std::make_unique<rel::WorldSampler>(*graph);
  }

  privacy::ObfuscationOptions obf_options;
  obf_options.k = flags.GetDouble("k");
  obf_options.epsilon = flags.GetDouble("eps");
  obf_options.keep_per_vertex = false;
  const auto reps =
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          1, flags.GetInt64("reps")));
  const auto mc_worlds = static_cast<std::size_t>(flags.GetInt64("mc_worlds"));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt64("seed"));

  // One timed call of the chosen workload at `t` workers. Returns false
  // on a workload error (already reported).
  const auto run_once = [&](int t) -> bool {
    if (workload == "obf_verify") {
      obf_options.threads = t;
      const Result<privacy::ObfuscationCertificate> cert =
          privacy::VerifyObfuscation(*graph, dists, obf_options);
      if (!cert.ok()) {
        std::fprintf(stderr, "error: %s\n", cert.status().ToString().c_str());
        return false;
      }
    } else if (workload == "pb_build") {
      privacy::BuildDegreeDistributions(*graph, t);
    } else {
      SampleWorldsParallel(*sampler, mc_worlds, seed, t);
    }
    return true;
  };

  std::fprintf(stdout, "graph: %u nodes, %zu edges; workload: %s; reps: %llu\n",
               graph->num_nodes(), graph->num_edges(), workload.c_str(),
               static_cast<unsigned long long>(reps));

  std::vector<SweepRow> rows;
  for (const int t : thread_counts) {
    SweepRow row;
    row.threads = t;
    row.reps = reps;
    // Fresh aggregates per row: every "scaling/..." entry left afterwards
    // belongs to exactly this worker count.
    obs::ResetParallelRegionAggregates();
    std::vector<std::uint64_t> walls;
    walls.reserve(reps);
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      CHOBS_SPAN(span, StrFormat("scaling[t%d][r%llu]", t,
                                 static_cast<unsigned long long>(rep)));
      const std::uint64_t t0 = MonotonicNanos();
      if (!run_once(t)) return 1;
      walls.push_back(MonotonicNanos() - t0);
    }
    row.wall_ns_median = MedianNanos(walls);
    row.wall_ns_min = *std::min_element(walls.begin(), walls.end());
    // Row totals from the sweep span's aggregates: the timed spans all
    // strip to "scaling/...", so setup and stray regions never count.
    for (const obs::ParallelRegionAggregate& agg :
         obs::ParallelRegionAggregates()) {
      // MC regions sit directly under the timed span ("scaling"); the
      // library workloads nest ("scaling/privacy/...").
      if (agg.name != "scaling" && !HasPrefix(agg.name, "scaling/")) continue;
      row.regions += agg.regions;
      row.busy_ns += agg.busy_ns;
      row.idle_ns += agg.idle_ns;
      row.overhead_ns += agg.overhead_ns;
      row.workers = std::max(row.workers, agg.last_workers);
      row.max_imbalance = std::max(row.max_imbalance, agg.max_imbalance);
      row.hw_cycles += agg.hw_cycles;
      row.hw_instructions += agg.hw_instructions;
      row.hw_cache_refs += agg.hw_cache_references;
      row.hw_cache_misses += agg.hw_cache_misses;
    }
    if (row.workers == 0) row.workers = 1;  // obs disabled: no telemetry
    rows.push_back(row);
  }

  const std::uint64_t base = rows.front().wall_ns_median;
  for (SweepRow& row : rows) {
    row.speedup = row.wall_ns_median > 0
                      ? static_cast<double>(base) /
                            static_cast<double>(row.wall_ns_median)
                      : 0.0;
    row.efficiency = row.speedup / static_cast<double>(row.threads);
  }
  const ScalingFit fit = FitScaling(rows);
  const std::string bandwidth_verdict = BandwidthVerdict(rows);

  std::fprintf(stdout,
               "\n  threads  workers  wall(med)      speedup  eff     "
               "regions  imbalance  ipc    cache_miss\n");
  for (const SweepRow& row : rows) {
    std::fprintf(stdout,
                 "  %7d  %7llu  %9.3f ms  %6.2fx  %5.1f%%  %7llu  %9.2f",
                 row.threads, static_cast<unsigned long long>(row.workers),
                 static_cast<double>(row.wall_ns_median) * 1e-6, row.speedup,
                 row.efficiency * 100.0,
                 static_cast<unsigned long long>(row.regions),
                 row.max_imbalance);
    if (row.HasHw()) {
      std::fprintf(stdout, "  %5.2f  %8.1f%%\n", row.Ipc(),
                   row.CacheMissRate() * 100.0);
    } else {
      std::fprintf(stdout, "      -         -\n");
    }
  }
  std::fprintf(stdout, "\nbandwidth verdict: %s\n",
               bandwidth_verdict.c_str());
  if (fit.valid) {
    std::fprintf(stdout,
                 "\nfit: Amdahl serial fraction %.3f; USL sigma=%.4f "
                 "kappa=%.5f\n",
                 fit.amdahl_serial_fraction, fit.usl_sigma, fit.usl_kappa);
  } else {
    std::fprintf(stdout, "\nfit: (needs a multi-thread sweep point)\n");
  }

  const std::string& out = flags.GetString("out");
  if (!out.empty()) {
    if (Status s = WriteTextFile(
            out, ScalingJson(workload, *graph, flags, rows, fit,
                             bandwidth_verdict));
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stdout, "scaling json: %s\n", out.c_str());
  }

  obs::ShutdownObservability();
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
