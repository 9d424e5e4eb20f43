// StatusServer tests: raw-socket HTTP round trips against an ephemeral
// port, plus Prometheus text-format and /healthz liveness checks that
// never open a socket.

#include "chameleon/obs/status_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "chameleon/obs/convergence.h"
#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/metrics.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"

namespace chameleon::obs {
namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One HTTP/1.0 round trip; returns the raw response (headers + body).
std::string HttpGet(int port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(StatusServerTest, StartsOnEphemeralPortAndStops) {
  Result<std::unique_ptr<StatusServer>> server = StatusServer::Start({});
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();
  EXPECT_GT(port, 0);

  const int fd = ConnectLoopback(port);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);

  (*server)->Stop();
  (*server)->Stop();  // idempotent
  EXPECT_LT(ConnectLoopback(port), 0) << "port still open after Stop()";
}

TEST(StatusServerTest, RejectsBadOptions) {
  StatusServerOptions options;
  options.port = 70000;
  EXPECT_FALSE(StatusServer::Start(options).ok());
  options.port = 0;
  options.bind_address = "not-an-address";
  EXPECT_FALSE(StatusServer::Start(options).ok());
}

TEST(StatusServerTest, StatuszRendersLiveState) {
  Result<std::unique_ptr<StatusServer>> server = StatusServer::Start({});
  ASSERT_TRUE(server.ok());

  ConvergenceOptions tracker_options;
  tracker_options.use_global_sink = false;
  ConvergenceTracker tracker("statusz_test/estimator", tracker_options);
  for (int i = 0; i < 32; ++i) tracker.AddBernoulli(i % 4 == 0);

  const std::string response = HttpGet((*server)->port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(response.find("chameleon statusz"), std::string::npos);
  EXPECT_NE(response.find("build:"), std::string::npos);
  EXPECT_NE(response.find("live spans:"), std::string::npos);
  EXPECT_NE(response.find("estimators:"), std::string::npos);
  EXPECT_NE(response.find("statusz_test/estimator: n=32"), std::string::npos);

  // "/" aliases /statusz.
  EXPECT_NE(HttpGet((*server)->port(), "/").find("chameleon statusz"),
            std::string::npos);
}

TEST(StatusServerTest, MetricszServesPrometheusText) {
  GlobalMetrics().Reset();
  GlobalMetrics().Count("statusz_test/requests", 3);
  GlobalMetrics().SetGauge("statusz_test/load", 0.25);
  GlobalMetrics().Observe("statusz_test/latency", 1500);

  Result<std::unique_ptr<StatusServer>> server = StatusServer::Start({});
  ASSERT_TRUE(server.ok());
  const std::string response = HttpGet((*server)->port(), "/metricsz");

  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find(
                "Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE chameleon_statusz_test_requests_total "
                          "counter"),
            std::string::npos);
  EXPECT_NE(response.find("chameleon_statusz_test_requests_total 3"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE chameleon_statusz_test_load gauge"),
            std::string::npos);
  EXPECT_NE(response.find("chameleon_statusz_test_load 0.25"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE chameleon_statusz_test_latency_seconds "
                          "histogram"),
            std::string::npos);
  EXPECT_NE(response.find("chameleon_statusz_test_latency_seconds_bucket{"
                          "le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(response.find("chameleon_statusz_test_latency_seconds_count 1"),
            std::string::npos);
  GlobalMetrics().Reset();
}

TEST(StatusServerTest, UnknownPathIs404) {
  Result<std::unique_ptr<StatusServer>> server = StatusServer::Start({});
  ASSERT_TRUE(server.ok());
  const std::string response = HttpGet((*server)->port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos);
  EXPECT_NE(response.find(
                "try /statusz, /metricsz, /healthz, or /profilez?seconds=N"),
            std::string::npos);
}

TEST(HealthzTest, AtRestAnswersOk) {
  Result<std::unique_ptr<StatusServer>> server = StatusServer::Start({});
  ASSERT_TRUE(server.ok());
  const std::string response = HttpGet((*server)->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("chameleon healthz"), std::string::npos);
  EXPECT_NE(response.find("overall: OK"), std::string::npos);
  EXPECT_EQ(response.find("watchdog:"), std::string::npos) << response;
}

TEST(HealthzTest, IdleSpanStallsWhileAnActiveOneStaysOk) {
  constexpr double kStallSeconds = 0.05;
  MemorySink sink;
  Tracer tracer(&sink, &GlobalMetrics());
  {
    TraceSpan span("idle_phase", &tracer);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::string healthz = HealthzText(kStallSeconds);
    EXPECT_NE(healthz.find("idle_phase"), std::string::npos) << healthz;
    EXPECT_NE(healthz.find("overall: STALLED"), std::string::npos)
        << healthz;
  }
  {
    // Open four thresholds long, but never idle: each check follows a
    // fresh flight event, as heartbeats and estimator checkpoints keep
    // a real phase's pulse.
    TraceSpan span("busy_phase", &tracer);
    for (int i = 0; i < 20; ++i) {
      RecordFlightEvent(FlightEventKind::kCheckpoint, "busy_tick",
                        static_cast<std::uint64_t>(i), 20);
      const std::string healthz = HealthzText(kStallSeconds);
      EXPECT_NE(healthz.find("busy_phase"), std::string::npos) << healthz;
      EXPECT_NE(healthz.find("overall: OK"), std::string::npos) << healthz;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

TEST(StatusServerTest, GlobalServerRestartAndStop) {
  ASSERT_TRUE(StartGlobalStatusServer({}).ok());
  ASSERT_NE(GlobalStatusServer(), nullptr);
  const int first_port = GlobalStatusServer()->port();

  // Starting again replaces (and stops) the previous instance.
  ASSERT_TRUE(StartGlobalStatusServer({}).ok());
  ASSERT_NE(GlobalStatusServer(), nullptr);
  const int second_port = GlobalStatusServer()->port();
  EXPECT_LT(ConnectLoopback(first_port), 0);
  EXPECT_NE(HttpGet(second_port, "/statusz").find("200 OK"),
            std::string::npos);

  StopGlobalStatusServer();
  StopGlobalStatusServer();  // idempotent
  EXPECT_EQ(GlobalStatusServer(), nullptr);
  EXPECT_LT(ConnectLoopback(second_port), 0);
}

TEST(PrometheusTextTest, SanitizesNamesAndDedupes) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"module/phase-x/events", 7});
  snapshot.counters.push_back({"module/phase_x/events", 9});  // same PromName
  const std::string text = PrometheusMetricsText(snapshot);
  EXPECT_NE(text.find("# TYPE chameleon_module_phase_x_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("chameleon_module_phase_x_events_total 7"),
            std::string::npos);
  // The colliding second counter is dropped, not double-declared.
  EXPECT_EQ(CountOccurrences(text, "# TYPE "), 1u);
  EXPECT_EQ(text.find("9\n"), std::string::npos);
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulativeSeconds) {
  MetricsSnapshot snapshot;
  HistogramSample histogram;
  histogram.name = "lat";
  histogram.count = 4;
  histogram.sum_nanos = 4000;
  histogram.buckets[0] = 1;  // [1, 2) ns
  histogram.buckets[2] = 3;  // [4, 8) ns
  snapshot.histograms.push_back(histogram);

  const std::string text = PrometheusMetricsText(snapshot);
  EXPECT_NE(text.find("# TYPE chameleon_lat_seconds histogram"),
            std::string::npos);
  // le bounds are the bucket upper edges in seconds; counts accumulate.
  EXPECT_NE(text.find("chameleon_lat_seconds_bucket{le=\"2e-09\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("chameleon_lat_seconds_bucket{le=\"4e-09\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("chameleon_lat_seconds_bucket{le=\"8e-09\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("chameleon_lat_seconds_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("chameleon_lat_seconds_sum 4e-06"), std::string::npos);
  EXPECT_NE(text.find("chameleon_lat_seconds_count 4"), std::string::npos);
  // Every line is a comment or `name{labels} value` — no spaces in names.
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_EQ(CountOccurrences(line, " "), 1u) << line;
    }
    line_start = line_end + 1;
  }
}

}  // namespace
}  // namespace chameleon::obs
