// Client side of the benchmark: the shipped cspm_serve binary run as a
// child process, raw CSN1 load connections, and the open-loop load
// generator. Everything here talks to the server only through the
// public net/ frame and codec functions, exactly as an outside client
// would.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "util/status.h"

namespace perfbench {

/// `cspm_serve <store> --port 0` as a child process with every other flag
/// left at its shipped default. The child dies with the benchmark
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps a child that
/// was not stopped cleanly.
class ServerProcess {
 public:
  static cspm::StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::string& store_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Peak resident set of the server process so far (VmHWM), in MiB.
  cspm::StatusOr<double> PeakRssMb() const;
  /// SIGTERM, then waits for a clean exit (status 0).
  cspm::Status Stop();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the child's stdout
  uint16_t port_ = 0;
};

/// One load connection. Request ids are assigned here, so the open loop
/// can map every reply back to the arrival that caused it.
struct Conn {
  explicit Conn(cspm::net::Client c) : client(std::move(c)) {}
  cspm::net::Client client;  ///< owns the socket; its RPC helpers are unused
  uint32_t next_id = 1;
  cspm::net::FrameParser parser;
  std::vector<cspm::net::Frame> ready;  ///< parsed, not yet consumed
};

using Conns = std::vector<std::unique_ptr<Conn>>;

cspm::StatusOr<Conns> Connect(uint16_t port, size_t count);

/// Sends one request and blocks until its reply arrives. Only for use
/// while no open-loop phase is running on `conn`.
cspm::StatusOr<cspm::net::Frame> Call(Conn& conn, cspm::net::Verb verb,
                                      const std::string& payload);

/// One scheduled request of an open-loop phase.
struct Arrival {
  uint64_t due_ns = 0;  ///< offset from the phase start
  uint32_t conn = 0;
  uint32_t payload = 0;  ///< index into the phase's payload table
  cspm::net::Verb verb = cspm::net::Verb::kScore;
};

/// kUnanswered also covers a request never sent because its connection
/// failed.
enum class Outcome : uint8_t { kOk, kOverloaded, kError, kUnanswered };

struct OpenLoopResult {
  /// Per arrival: what happened, reply time minus due time (ms, valid for
  /// kOk/kOverloaded/kError) and send time minus due time (ms, valid when
  /// sent).
  std::vector<Outcome> outcome;
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
};

/// Open loop on two threads: the caller's thread sends every arrival at its
/// due time (never waiting for replies), one receiver thread reads all
/// connections. Latency is measured from the due time, so a late sender
/// shows up as latency, and its lateness is reported separately. Replies
/// not in 10 s after the last send count as unanswered.
OpenLoopResult RunOpenLoop(Conns& conns, const std::vector<Arrival>& arrivals,
                           const std::vector<std::string>& payloads);

/// Reads one number out of a MetricsRegistry::SnapshotJson() document:
/// `section` is "counters", "gauges" or "histograms"; for histograms
/// `field` names the summary field ("p50_ns", "count", ...). NaN when
/// absent.
double SnapshotNumber(const std::string& json, const std::string& section,
                      const std::string& name, const std::string& field = "");

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
