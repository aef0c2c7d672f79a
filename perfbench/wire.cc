#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <thread>

#include "util/timer.h"

namespace perfbench {

using cspm::Status;
using cspm::StatusOr;
using cspm::net::Frame;
using cspm::net::Verb;
using cspm::net::WireStatus;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Status WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads what the socket has (blocking until at least one byte) and parses
/// complete frames into conn.ready.
Status ReadFrames(Conn& conn) {
  char buf[1 << 16];
  ssize_t n = 0;
  do {
    n = ::read(conn.client.fd(), buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Status::IOError(std::string("read: ") + std::strerror(errno));
  if (n == 0) return Status::IOError("server closed the connection");
  return conn.parser.Feed(std::string_view(buf, static_cast<size_t>(n)),
                          &conn.ready);
}

std::string EncodeRequest(Verb verb, uint32_t id, const std::string& payload) {
  Frame frame;
  frame.verb = verb;
  frame.request_id = id;
  frame.payload = payload;
  return cspm::net::EncodeFrame(frame);
}

}  // namespace

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::string& store_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execl(binary.c_str(), binary.c_str(), store_path.c_str(), "--port", "0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->out_fd_ = pipe_fds[0];

  // The startup line carries the ephemeral port:
  //   serving 1 model(s) from X on 127.0.0.1:PORT (max-batch=...)
  std::string line;
  cspm::WallTimer timer;
  while (line.find('\n') == std::string::npos) {
    pollfd pfd{server->out_fd_, POLLIN, 0};
    const int remaining_ms =
        60000 - static_cast<int>(timer.ElapsedMillis());
    if (remaining_ms <= 0 || ::poll(&pfd, 1, remaining_ms) <= 0) {
      return Status::IOError("cspm_serve printed no startup line");
    }
    char buf[512];
    const ssize_t n = ::read(server->out_fd_, buf, sizeof(buf));
    if (n <= 0) return Status::IOError("cspm_serve exited during startup");
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t on = line.find(" on ");
  const size_t colon = on == std::string::npos ? on : line.find(':', on);
  if (colon == std::string::npos) {
    return Status::IOError("unexpected cspm_serve startup line: " + line);
  }
  const long port = std::strtol(line.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    return Status::IOError("bad port in cspm_serve startup line: " + line);
  }
  server->port_ = static_cast<uint16_t>(port);
  return server;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

StatusOr<double> ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::IOError("no VmHWM for the server process");
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  ::kill(pid_, SIGTERM);
  // Drain its stdout until it closes, so the shutdown line never blocks on
  // a full pipe; a server that has not exited after 30 s is killed.
  char buf[512];
  for (;;) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 30000) <= 0) {
      ::kill(pid_, SIGKILL);
      break;
    }
    if (::read(out_fd_, buf, sizeof(buf)) <= 0) break;
  }
  int status = 0;
  const pid_t reaped = ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (reaped < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("cspm_serve did not shut down cleanly");
  }
  return Status::OK();
}

StatusOr<Conns> Connect(uint16_t port, size_t count) {
  Conns conns;
  for (size_t i = 0; i < count; ++i) {
    CSPM_ASSIGN_OR_RETURN(cspm::net::Client client,
                          cspm::net::Client::Connect("127.0.0.1", port));
    conns.push_back(std::make_unique<Conn>(std::move(client)));
  }
  return conns;
}

StatusOr<Frame> Call(Conn& conn, Verb verb, const std::string& payload) {
  const uint32_t id = conn.next_id++;
  CSPM_RETURN_IF_ERROR(
      WriteAll(conn.client.fd(), EncodeRequest(verb, id, payload)));
  for (;;) {
    for (size_t i = 0; i < conn.ready.size(); ++i) {
      if (conn.ready[i].request_id == id) {
        Frame reply = std::move(conn.ready[i]);
        conn.ready.erase(conn.ready.begin() + static_cast<ptrdiff_t>(i));
        return reply;
      }
    }
    CSPM_RETURN_IF_ERROR(ReadFrames(conn));
  }
}

OpenLoopResult RunOpenLoop(Conns& conns, const std::vector<Arrival>& arrivals,
                           const std::vector<std::string>& payloads) {
  const size_t n = arrivals.size();
  std::vector<std::vector<uint32_t>> by_conn(conns.size());
  for (uint32_t i = 0; i < n; ++i) by_conn[arrivals[i].conn].push_back(i);
  std::vector<uint32_t> base(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) base[c] = conns[c]->next_id;

  // The sender owns `lateness`, the receiver owns `latency`/`reply`;
  // they are merged after the join.
  OpenLoopResult result;
  result.lateness_ms.assign(n, kNaN);
  result.latency_ms.assign(n, kNaN);
  std::vector<Outcome> reply(n, Outcome::kUnanswered);
  std::vector<uint8_t> replied(n, 0);

  std::atomic<uint64_t> sent_frames{0};
  std::atomic<uint64_t> done_frames{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> receiver_failed{false};
  std::atomic<uint64_t> drain_deadline_ns{0};
  cspm::WallTimer clock;

  std::thread receiver([&] {
    std::vector<pollfd> pfds;
    for (const auto& conn : conns) pfds.push_back({conn->client.fd(), POLLIN, 0});
    std::vector<Frame> frames;
    char buf[1 << 16];
    for (;;) {
      if (sender_done.load(std::memory_order_acquire)) {
        if (done_frames.load() == sent_frames.load()) break;
        if (clock.ElapsedNanos() > drain_deadline_ns.load()) break;
      }
      if (::poll(pfds.data(), pfds.size(), 2) < 0 && errno != EINTR) {
        receiver_failed = true;
        break;
      }
      for (size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::read(pfds[c].fd, buf, sizeof(buf));
        if (got <= 0) {
          if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          receiver_failed = true;
          break;
        }
        if (!conns[c]->parser
                 .Feed(std::string_view(buf, static_cast<size_t>(got)), &frames)
                 .ok()) {
          receiver_failed = true;
          break;
        }
        const uint64_t now = clock.ElapsedNanos();
        for (Frame& frame : frames) {
          const uint64_t k = uint64_t{frame.request_id} - base[c];
          if (frame.request_id < base[c] || k >= by_conn[c].size()) {
            receiver_failed = true;
            break;
          }
          const uint32_t idx = by_conn[c][k];
          if (replied[idx]) {
            receiver_failed = true;
            break;
          }
          replied[idx] = 1;
          reply[idx] = frame.status == WireStatus::kOk ? Outcome::kOk
                       : frame.status == WireStatus::kOverloaded
                           ? Outcome::kOverloaded
                           : Outcome::kError;
          result.latency_ms[idx] =
              static_cast<double>(now - arrivals[idx].due_ns) / 1e6;
          done_frames.fetch_add(1);
        }
        frames.clear();
        if (receiver_failed) break;
      }
      if (receiver_failed) break;
    }
  });

  // Default timer slack (50 us) would make every sleep overshoot by that.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<uint32_t> sent_on(conns.size(), 0);
  for (uint32_t i = 0; i < n && !receiver_failed.load(); ++i) {
    const Arrival& a = arrivals[i];
    for (;;) {
      const uint64_t now = clock.ElapsedNanos();
      if (now >= a.due_ns) break;
      // Sleep to within 40 us of the due time (timer slack is 1 ns, see
      // above), then yield-spin; sleeping keeps the sender's core free for
      // the server when arrivals are sparse.
      const uint64_t remaining = a.due_ns - now;
      if (remaining > 80'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(remaining - 40'000));
      } else {
        std::this_thread::yield();
      }
    }
    Conn& conn = *conns[a.conn];
    const uint32_t id = base[a.conn] + sent_on[a.conn]++;
    result.lateness_ms[i] =
        static_cast<double>(clock.ElapsedNanos() - a.due_ns) / 1e6;
    if (!WriteAll(conn.client.fd(), EncodeRequest(a.verb, id, payloads[a.payload]))
             .ok()) {
      sent_frames.fetch_add(1);
      break;
    }
    sent_frames.fetch_add(1);
  }
  drain_deadline_ns = clock.ElapsedNanos() + 10'000'000'000ULL;
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  for (size_t c = 0; c < conns.size(); ++c) conns[c]->next_id += sent_on[c];

  result.outcome.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.outcome[i] = replied[i] ? reply[i] : Outcome::kUnanswered;
    if (!replied[i]) result.latency_ms[i] = kNaN;
  }
  return result;
}

double SnapshotNumber(const std::string& json, const std::string& section,
                      const std::string& name, const std::string& field) {
  static const char* kSections[] = {"\"counters\":{", "\"gauges\":{",
                                    "\"histograms\":{"};
  const size_t begin = json.find("\"" + section + "\":{");
  if (begin == std::string::npos) return kNaN;
  size_t end = json.size();
  for (const char* other : kSections) {
    const size_t pos = json.find(other);
    if (pos != std::string::npos && pos > begin && pos < end) end = pos;
  }
  size_t pos = json.find("\"" + name + "\":", begin);
  if (pos == std::string::npos || pos >= end) return kNaN;
  pos += name.size() + 3;
  if (!field.empty()) {
    pos = json.find("\"" + field + "\":", pos);
    if (pos == std::string::npos || pos >= end) return kNaN;
    pos += field.size() + 3;
  }
  return std::strtod(json.c_str() + pos, nullptr);
}

}  // namespace perfbench
