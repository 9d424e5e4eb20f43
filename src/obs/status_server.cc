#include "chameleon/obs/status_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "chameleon/obs/convergence.h"
#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/heap_profiler.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/parallel_stats.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/obs/progress.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/run_context.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {
namespace {

std::string ErrnoText(const char* what) {
  return StrFormat("%s: %s", what, std::strerror(errno));
}

/// Prometheus metric name: `chameleon_` prefix, charset [a-zA-Z0-9_:].
std::string PromName(std::string_view name) {
  std::string out = "chameleon_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

/// Value of `key` in an "a=1&b=2" query string, or `fallback` when the
/// key is absent or does not parse as a number.
double QueryParam(std::string_view query, std::string_view key,
                  double fallback) {
  for (const std::string& pair : SplitTokens(query, "&")) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (std::string_view(pair).substr(0, eq) != key) continue;
    if (Result<double> value = ParseDouble(pair.substr(eq + 1)); value.ok()) {
      return *value;
    }
  }
  return fallback;
}

/// A phase idle this long reads STALLED on /healthz.
constexpr double kHealthzStallSeconds = 30.0;

std::mutex& GlobalServerMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::unique_ptr<StatusServer>& GlobalServerSlot() {
  static auto* slot = new std::unique_ptr<StatusServer>();
  return *slot;
}

}  // namespace

std::string StatuszText() {
  const BuildInfo& build = GetBuildInfo();
  const HostInfo host = GetHostInfo();
  const ProcessUsage usage = GetProcessUsage();
  const std::uint64_t now = MonotonicNanos();

  std::string text = "chameleon statusz\n";
  text += StrFormat("build: %s (%s %s, %s)\n", build.git_describe.c_str(),
                    build.compiler_id.c_str(), build.compiler_version.c_str(),
                    build.build_type.c_str());
  text += StrFormat("host: %s, pid %lld\n", host.hostname.c_str(),
                    static_cast<long long>(host.pid));
  text += StrFormat("obs: %s", Enabled() ? "enabled" : "disabled");
  if (const std::uint64_t start = RunStartNanos(); start != 0 && now > start) {
    text += StrFormat(", run uptime %.1f s",
                      static_cast<double>(now - start) * 1e-9);
  }
  text += StrFormat("\nrusage: user %.1f ms, system %.1f ms, "
                    "peak rss %llu kb\n",
                    usage.user_cpu_ms, usage.system_cpu_ms,
                    static_cast<unsigned long long>(usage.max_rss_kb));

  text += "\nlive spans:\n";
  const std::vector<LiveSpanEntry> spans = LiveSpans();
  if (spans.empty()) text += "  (none)\n";
  for (const LiveSpanEntry& span : spans) {
    const double open_s = now > span.start_nanos
                              ? static_cast<double>(now - span.start_nanos) *
                                    1e-9
                              : 0.0;
    text += StrFormat("  tid %u  %s  (open %.1f s)\n", span.tid,
                      span.path.c_str(), open_s);
  }

  text += "\nheartbeats:\n";
  const std::vector<HeartbeatStatus> heartbeats = LiveHeartbeats();
  if (heartbeats.empty()) text += "  (none)\n";
  for (const HeartbeatStatus& hb : heartbeats) {
    text += StrFormat("  %s: %llu", hb.label.c_str(),
                      static_cast<unsigned long long>(hb.done));
    if (hb.total > 0) {
      text += StrFormat("/%llu (%.1f%%)",
                        static_cast<unsigned long long>(hb.total),
                        100.0 * static_cast<double>(hb.done) /
                            static_cast<double>(hb.total));
    }
    text += StrFormat(", %.0f/s", hb.rate_per_s);
    if (hb.total > hb.done && hb.rate_per_s > 0.0) {
      text += StrFormat(", ETA %.1f s", hb.eta_s);
    }
    if (hb.finished) text += " [finished]";
    text += '\n';
  }

  text += "\nestimators:\n";
  const std::vector<ConvergenceSnapshot> estimators =
      LiveConvergenceSnapshots();
  if (estimators.empty()) text += "  (none)\n";
  for (const ConvergenceSnapshot& est : estimators) {
    text += StrFormat(
        "  %s: n=%llu mean=%.6g ci_halfwidth=%.3g rel_err=%.3g %.0f/s%s\n",
        est.label.c_str(), static_cast<unsigned long long>(est.samples),
        est.mean, est.ci_halfwidth, est.rel_err, est.rate_per_s,
        est.finished ? (est.stopped_early ? " [stopped early]" : " [done]")
                     : "");
  }

  text += "\nparallel regions:\n";
  const std::vector<ParallelRegionAggregate> regions =
      ParallelRegionAggregates();
  if (regions.empty()) text += "  (none)\n";
  for (const ParallelRegionAggregate& region : regions) {
    const double wall_s = static_cast<double>(region.wall_ns) * 1e-9;
    const double speedup =
        region.wall_ns > 0 ? static_cast<double>(region.busy_ns) /
                                 static_cast<double>(region.wall_ns)
                           : 1.0;
    const double efficiency =
        region.last_workers > 0
            ? speedup / static_cast<double>(region.last_workers)
            : 1.0;
    text += StrFormat(
        "  %s: regions=%llu workers=%llu/%llu wall=%.3f s speedup=%.2fx "
        "eff=%.0f%% max_imbalance=%.2f overhead=%.1f ms\n",
        region.name.c_str(), static_cast<unsigned long long>(region.regions),
        static_cast<unsigned long long>(region.last_workers),
        static_cast<unsigned long long>(region.last_requested), wall_s,
        speedup, efficiency * 100.0, region.max_imbalance,
        static_cast<double>(region.overhead_ns) * 1e-6);
  }

  text += "\nheap:\n";
  if (!HeapProfilerActive()) {
    const std::string reason = HeapProfilerUnavailableReason();
    text += reason.empty() ? "  (inactive)\n"
                           : StrFormat("  (unavailable: %s)\n",
                                       reason.c_str());
  } else {
    const HeapProfileReport heap = SnapshotHeapProfile(/*symbolize=*/false);
    text += StrFormat(
        "  samples=%llu dropped=%llu est_live=%llu b est_peak=%llu b "
        "est_cum=%llu b (exact %llu b / %llu allocs)\n",
        static_cast<unsigned long long>(heap.samples),
        static_cast<unsigned long long>(heap.dropped),
        static_cast<unsigned long long>(heap.est_live_bytes),
        static_cast<unsigned long long>(heap.est_peak_bytes),
        static_cast<unsigned long long>(heap.est_cum_bytes),
        static_cast<unsigned long long>(heap.exact_cum_bytes),
        static_cast<unsigned long long>(heap.exact_cum_allocs));
    std::size_t shown = 0;
    for (const HeapSiteReport& site : heap.sites) {
      if (shown++ >= 5) break;
      text += StrFormat("  %s: cum=%llu b live=%llu b peak=%llu b\n",
                        site.span_path.c_str(),
                        static_cast<unsigned long long>(site.cum_bytes),
                        static_cast<unsigned long long>(site.live_bytes),
                        static_cast<unsigned long long>(site.peak_bytes));
    }
    if (heap.sites.empty()) text += "  (no samples yet)\n";
  }
  return text;
}

std::string HealthzText(double stall_seconds) {
  const std::uint64_t now = MonotonicNanos();
  std::unordered_map<std::uint32_t, std::uint64_t> last_activity;
  for (const FlightThreadActivity& activity : FlightRecorderActivity()) {
    std::uint64_t& last = last_activity[activity.thread_index];
    last = std::max(last, activity.last_event_ns);
  }
  // LiveSpans lists each thread's whole open stack; the innermost
  // (latest-opened) span is the phase that should be moving.
  std::map<std::uint32_t, LiveSpanEntry> innermost;
  for (const LiveSpanEntry& entry : LiveSpans()) {
    auto [it, inserted] = innermost.emplace(entry.tid, entry);
    if (!inserted && entry.start_nanos > it->second.start_nanos) {
      it->second = entry;
    }
  }
  std::string text = "chameleon healthz\n";
  text += innermost.empty() ? "phases: none open\n" : "phases:\n";
  bool any_stalled = false;
  for (const auto& [tid, span] : innermost) {
    std::uint64_t last = span.start_nanos;
    if (const auto it = last_activity.find(tid); it != last_activity.end()) {
      last = std::max(last, it->second);
    }
    const double open_s =
        now > span.start_nanos
            ? static_cast<double>(now - span.start_nanos) * 1e-9
            : 0.0;
    const double idle_s =
        now > last ? static_cast<double>(now - last) * 1e-9 : 0.0;
    const bool stalled = idle_s > stall_seconds;
    any_stalled = any_stalled || stalled;
    text += StrFormat("  tid %u  %s  open %.1f s  idle %.1f s  %s\n", tid,
                      span.path.c_str(), open_s, idle_s,
                      stalled ? "STALLED" : "OK");
  }
  text += any_stalled ? "overall: STALLED\n" : "overall: OK\n";
  return text;
}

std::string PrometheusMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::set<std::string> emitted;
  for (const CounterSample& counter : snapshot.counters) {
    const std::string name = PromName(counter.name) + "_total";
    if (!emitted.insert(name).second) continue;
    out += "# TYPE " + name + " counter\n";
    out += StrFormat("%s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(counter.value));
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    const std::string name = PromName(gauge.name);
    if (!emitted.insert(name).second) continue;
    out += "# TYPE " + name + " gauge\n";
    out += StrFormat("%s %.9g\n", name.c_str(), gauge.value);
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    // Log2 nanosecond buckets re-expressed as cumulative seconds; the
    // last finite bucket absorbs overflow, so its count already equals
    // the +Inf bucket.
    const std::string name = PromName(histogram.name) + "_seconds";
    if (!emitted.insert(name).second) continue;
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      cumulative += histogram.buckets[b];
      out += StrFormat("%s_bucket{le=\"%.9g\"} %llu\n", name.c_str(),
                       std::ldexp(1e-9, static_cast<int>(b) + 1),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                     static_cast<unsigned long long>(histogram.count));
    out += StrFormat("%s_sum %.9g\n", name.c_str(),
                     static_cast<double>(histogram.sum_nanos) * 1e-9);
    out += StrFormat("%s_count %llu\n", name.c_str(),
                     static_cast<unsigned long long>(histogram.count));
  }
  return out;
}

Result<std::unique_ptr<StatusServer>> StatusServer::Start(
    const StatusServerOptions& options) {
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument(
        StrFormat("statusz port %d out of range", options.port));
  }
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Status::IoError(ErrnoText("socket"));

  const int enable = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const Status status = Status::IoError(
        ErrnoText(("bind " + options.bind_address).c_str()));
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 8) < 0) {
    const Status status = Status::IoError(ErrnoText("listen"));
    ::close(listen_fd);
    return status;
  }

  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) < 0) {
    const Status status = Status::IoError(ErrnoText("getsockname"));
    ::close(listen_fd);
    return status;
  }

  int stop_pipe[2];
  if (::pipe2(stop_pipe, O_CLOEXEC) < 0) {
    const Status status = Status::IoError(ErrnoText("pipe2"));
    ::close(listen_fd);
    return status;
  }

  std::unique_ptr<StatusServer> server(
      new StatusServer(listen_fd, static_cast<int>(ntohs(bound.sin_port)),
                       stop_pipe[0], stop_pipe[1]));
  return server;
}

StatusServer::StatusServer(int listen_fd, int port, int stop_read_fd,
                           int stop_write_fd)
    : listen_fd_(listen_fd),
      port_(port),
      stop_read_fd_(stop_read_fd),
      stop_write_fd_(stop_write_fd) {
  thread_ = std::thread([this] { Serve(); });
}

StatusServer::~StatusServer() { Stop(); }

void StatusServer::Stop() {
  if (stopped_.exchange(true)) return;
  const char wake = 'x';
  // Best effort: the pipe buffer is empty (one writer, one byte).
  static_cast<void>(::write(stop_write_fd_, &wake, 1));
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  ::close(stop_read_fd_);
  ::close(stop_write_fd_);
}

void StatusServer::Serve() {
  // The obs termination hooks (which may join this thread) must run on a
  // worker thread, never here.
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGINT);
  sigaddset(&blocked, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);

  for (;;) {
    struct pollfd fds[2] = {};
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = stop_read_fd_;
    fds[1].events = POLLIN;
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;
    if ((fds[0].revents & POLLIN) != 0) {
      const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd >= 0) HandleConnection(client_fd);
    }
  }
}

void StatusServer::HandleConnection(int client_fd) {
  // A stalled scraper must not wedge the serving thread.
  struct timeval timeout = {};
  timeout.tv_sec = 2;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buffer[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(client_fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    request.append(buffer, static_cast<std::size_t>(n));
  }

  std::string target;
  if (request.compare(0, 4, "GET ") == 0) {
    const std::size_t space = request.find(' ', 4);
    if (space != std::string::npos) target = request.substr(4, space - 4);
  }
  std::string path = target;
  std::string query;
  if (const std::size_t qmark = target.find('?');
      qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  int code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/statusz" || path == "/") {
    body = StatuszText();
  } else if (path == "/metricsz") {
    PublishConvergenceGauges();
    PublishHeapGauges();
    body = PrometheusMetricsText(GlobalMetrics().TakeSnapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/profilez") {
    // Bounded capture; blocks this serving thread for the duration
    // (seconds is clamped to [0.05, 30], and a stalled scraper cannot
    // wedge anything else). When a whole-run --profile capture is
    // already running, this returns its aggregate so far instead.
    const double seconds = QueryParam(query, "seconds", 1.0);
    const int hz =
        static_cast<int>(QueryParam(query, "hz", 99.0));
    Result<std::string> folded = CaptureFoldedProfile(seconds, hz);
    if (folded.ok()) {
      body = *std::move(folded);
    } else {
      code = 503;
      body = "profile capture failed: " + folded.status().ToString() + "\n";
    }
  } else if (path == "/healthz") {
    // 503 lets a plain HTTP prober (load balancer, cron curl) detect a
    // wedged run without parsing anything.
    body = HealthzText(kHealthzStallSeconds);
    if (body.find("overall: STALLED") != std::string::npos) code = 503;
  } else {
    code = 404;
    body =
        "not found; try /statusz, /metricsz, /healthz, or "
        "/profilez?seconds=N\n";
  }

  const char* reason = code == 200   ? "OK"
                       : code == 503 ? "Service Unavailable"
                                     : "Not Found";
  std::string response = StrFormat(
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      code, reason, content_type.c_str(), body.size());
  response += body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(client_fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::close(client_fd);
}

Status StartGlobalStatusServer(const StatusServerOptions& options) {
  Result<std::unique_ptr<StatusServer>> server = StatusServer::Start(options);
  if (!server.ok()) return server.status();
  std::unique_ptr<StatusServer> previous;
  {
    const std::lock_guard<std::mutex> lock(GlobalServerMu());
    previous = std::move(GlobalServerSlot());
    GlobalServerSlot() = *std::move(server);
  }
  previous.reset();  // joins the old serving thread outside the lock
  const int port = GlobalStatusServer()->port();
  CH_LOG(Info) << "statusz serving on http://" << options.bind_address << ":"
               << port << "/statusz";
  // With --statusz_port=0 the kernel picks the port, so scripts cannot
  // know it up front; the JSONL record makes it discoverable from the
  // metrics stream (CI smoke tests).
  if (RecordSink* sink = GlobalSink(); sink != nullptr) {
    sink->Write(Record("status_server")
                    .Str("address", options.bind_address)
                    .Int("port", port)
                    .Finish());
    sink->Flush();
  }
  return Status::OK();
}

StatusServer* GlobalStatusServer() {
  const std::lock_guard<std::mutex> lock(GlobalServerMu());
  return GlobalServerSlot().get();
}

void StopGlobalStatusServer() {
  std::unique_ptr<StatusServer> server;
  {
    const std::lock_guard<std::mutex> lock(GlobalServerMu());
    server = std::move(GlobalServerSlot());
  }
  server.reset();
}

}  // namespace chameleon::obs
