#ifndef CHAMELEON_OBS_STATUS_SERVER_H_
#define CHAMELEON_OBS_STATUS_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "chameleon/obs/metrics.h"
#include "chameleon/util/common.h"
#include "chameleon/util/status.h"

/// \file status_server.h
/// Flag-gated live inspection of a long Monte Carlo run: a background
/// thread serving minimal HTTP/1.0 plain text on a loopback port.
///
///   /statusz   run provenance, uptime, live span stack, heartbeats, and
///              the per-estimator convergence table (human-readable text)
///   /metricsz  the full MetricsRegistry plus live convergence gauges in
///              Prometheus text exposition format 0.0.4
///   /profilez  a bounded CPU profile as folded stacks (?seconds=N&hz=N)
///   /healthz   per-phase liveness; 503 once a phase is stalled
///
/// The server owns no state: every request re-renders from the live obs
/// registries (all mutex-guarded for exactly this cross-thread read).
/// SIGINT/SIGTERM are blocked on the server thread so the existing obs
/// termination hooks always run on a worker thread and can join this one;
/// FinalizeRun() stops the global server before the final run_summary is
/// written, so a scraped port going dead implies the stream is complete.

namespace chameleon::obs {

struct StatusServerOptions {
  /// TCP port; 0 picks an ephemeral port (query it via port()).
  int port = 0;
  /// Loopback by default; the pages are diagnostics, not a public API.
  std::string bind_address = "127.0.0.1";
};

class StatusServer {
 public:
  /// Binds, listens, and starts the serving thread. IoError when the
  /// port/address cannot be bound.
  static Result<std::unique_ptr<StatusServer>> Start(
      const StatusServerOptions& options = {});

  ~StatusServer();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(StatusServer);

  /// The bound port (resolved when options.port was 0).
  int port() const { return port_; }

  /// Stops the serving thread and closes the socket. Idempotent; also
  /// called by the destructor.
  void Stop();

 private:
  StatusServer(int listen_fd, int port, int stop_read_fd, int stop_write_fd);
  void Serve();
  void HandleConnection(int client_fd);

  int listen_fd_;
  int port_;
  int stop_read_fd_;
  int stop_write_fd_;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

/// Renders the /statusz page from the live obs registries.
std::string StatuszText();

/// Renders the /healthz page: one line per phase (the innermost open span
/// on each thread) with how long it has been open and idle, idle meaning
/// since its thread's last flight event; the phase is STALLED once idle
/// exceeds `stall_seconds` (the server passes 30). Ends with "overall:
/// OK" or "overall: STALLED".
std::string HealthzText(double stall_seconds);

/// Renders a metrics snapshot in Prometheus text exposition format 0.0.4:
/// names are prefixed `chameleon_` and sanitized to [a-zA-Z0-9_:];
/// counters gain a `_total` suffix, latency histograms become cumulative
/// `_seconds` histograms (le bounds are the log2 bucket upper edges).
std::string PrometheusMetricsText(const MetricsSnapshot& snapshot);

/// Process-global server, started from a tool's --statusz_port flag.
/// Starting again stops any previous instance. StopGlobalStatusServer()
/// is idempotent and called by the obs termination hooks before the final
/// run_summary is written.
Status StartGlobalStatusServer(const StatusServerOptions& options);
StatusServer* GlobalStatusServer();
void StopGlobalStatusServer();

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_STATUS_SERVER_H_
