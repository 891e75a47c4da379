#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "service/protocol.h"

namespace encodesat {

namespace {

/// Every connection-lifecycle counter the transports can emit, registered
/// up front (non-fingerprint: they depend on client arrival and timing)
/// so the telemetry name set does not depend on which paths ran.
constexpr const char* kConnCounters[] = {
    "service.conn.accepted",       "service.conn.reaped",
    "service.conn.rejected_overload", "service.conn.oversized_line",
    "service.conn.idle_closed",
};

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Full write with EINTR/EAGAIN retry; MSG_NOSIGNAL on sockets so a
/// vanished client is an EPIPE error, not a signal. Each chunk first
/// waits for writability (up to `timeout_ms` when > 0, else forever), so
/// connection fds may be non-blocking and a client that stops reading
/// (full socket/pipe buffer) bounds the stall instead of blocking the
/// calling thread forever. False on any write error or stall past the
/// budget.
bool write_all(int fd, bool is_socket, const std::string& data,
               int timeout_ms) {
  std::size_t off = 0;
  while (off < data.size()) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) return false;  // stalled client
    if (pfd.revents & (POLLERR | POLLNVAL)) return false;
    const ssize_t n =
        is_socket ? ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL)
                  : ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// One client conversation: allocates a sequence number per request line
/// (transport thread only) and writes responses back in that order,
/// buffering out-of-order completions from the broker's workers.
///
/// Lifetime: held by shared_ptr — the transport's connection entry plus
/// every broker callback still pending for it — so a response delivery
/// can never race the transport reaping the connection. The drain
/// handoff: once the transport marks EOF (no more slots will be
/// allocated), the deliver() that completes the last outstanding slot
/// fires `on_drained`, and the event loop reaps the connection and drops
/// its reference. The fd is borrowed, never closed here.
class Server::Session {
 public:
  Session(int out_fd, bool is_socket, int write_timeout_ms,
          std::function<void()> on_drained)
      : fd_(out_fd),
        socket_(is_socket),
        write_timeout_ms_(write_timeout_ms),
        on_drained_(std::move(on_drained)) {}

  /// Transport thread only: the order slot for the next request line.
  std::uint64_t alloc_seq() { return allocated_++; }

  /// Any thread: queues `line` for slot `seq`, then flushes every ready
  /// line in order. The actual write happens *outside* the session lock
  /// (one writer at a time; concurrent callers enqueue and return, the
  /// active writer picks their lines up), so a slow client never holds
  /// the lock against other completions. After a write error or a stall
  /// past write_timeout_ms the session goes dead and output is discarded
  /// (slots still advance so wait_flushed() terminates).
  void deliver(std::uint64_t seq, std::string line) {
    bool drained_now = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      pending_.emplace(seq, std::move(line));
      if (writing_) return;  // the active writer will flush this slot
      writing_ = true;
      std::string batch;
      for (;;) {
        batch.clear();
        for (auto it = pending_.find(next_to_write_); it != pending_.end();
             it = pending_.find(next_to_write_)) {
          if (!dead_) {
            batch += it->second;
            batch += '\n';
          }
          pending_.erase(it);
          ++next_to_write_;
        }
        if (batch.empty()) break;
        lock.unlock();
        const bool ok = write_all(fd_, socket_, batch, write_timeout_ms_);
        lock.lock();
        if (!ok) dead_ = true;
      }
      writing_ = false;
      drained_now = eof_ && next_to_write_ == allocated_;
      cv_.notify_all();
    }
    // Fired outside the lock; the hook only pokes the event loop's wake
    // pipe, and the loop re-checks drained() before reaping.
    if (drained_now) on_drained_();
  }

  /// Transport thread only: no further alloc_seq() calls will happen.
  /// Returns true when the session is already drained (every slot
  /// written or discarded, no write in flight) — the caller may reap
  /// immediately; otherwise the finishing deliver() fires `on_drained`.
  bool mark_eof() {
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    return !writing_ && next_to_write_ == allocated_;
  }

  /// True once EOF was marked and every allocated slot has been written
  /// (or discarded) with no write in flight — safe to close the fd and
  /// drop the session.
  bool drained() {
    std::lock_guard<std::mutex> lock(mu_);
    return eof_ && !writing_ && next_to_write_ == allocated_;
  }

  /// Blocks until every allocated slot has been written (or discarded)
  /// and no write is in flight. Call after the transport stopped
  /// allocating and the broker guaranteed a response per slot (i.e.
  /// after drain()).
  void wait_flushed() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock,
             [this] { return !writing_ && next_to_write_ == allocated_; });
  }

 private:
  const int fd_;
  const bool socket_;
  const int write_timeout_ms_;
  const std::function<void()> on_drained_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t allocated_ = 0;
  std::uint64_t next_to_write_ = 0;
  std::map<std::uint64_t, std::string> pending_;
  bool writing_ = false;  ///< a deliver() call is mid-write, lock dropped
  bool dead_ = false;
  bool eof_ = false;  ///< no more slots will be allocated
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), broker_(cfg_.broker) {
  if (cfg_.max_line_bytes < 1) cfg_.max_line_bytes = 1;
  if (cfg_.backlog < 1) cfg_.backlog = 1;
  if (cfg_.broker.metrics)
    for (const char* name : kConnCounters)
      cfg_.broker.metrics->counter(name, /*in_fingerprint=*/false);
  if (::pipe(signal_pipe_) != 0) {
    signal_pipe_[0] = signal_pipe_[1] = -1;
    return;
  }
  for (const int fd : signal_pipe_) {
    set_cloexec(fd);
    set_nonblock(fd);
  }
}

Server::~Server() {
  for (const int fd : signal_pipe_)
    if (fd >= 0) ::close(fd);
}

void Server::request_drain() {
  if (signal_pipe_[1] < 0) return;
  const char byte = 1;
  // Best-effort and async-signal-safe; a full pipe already means a drain
  // byte is pending.
  [[maybe_unused]] const ssize_t n = ::write(signal_pipe_[1], &byte, 1);
}

void Server::count_conn(const char* name) {
  if (cfg_.broker.metrics) cfg_.broker.metrics->counter(name, false)->add(1);
}

void Server::handle_line(const std::shared_ptr<Session>& session,
                         std::uint64_t seq, const std::string& line) {
  WireRequest wire;
  std::string perr_msg;
  if (!parse_request(line, &wire, &perr_msg)) {
    session->deliver(
        seq, render_error_response(wire.id, StatusCode::kParseError,
                                   perr_msg));
    return;
  }
  if (wire.op == WireRequest::Op::kStats ||
      wire.op == WireRequest::Op::kMetrics) {
    // Both scrape ops share one view: the registry, the live broker gauges
    // (so `stats` and `metrics` agree), and a freshened obs.trace.dropped
    // high-water mark.
    if (cfg_.broker.metrics && cfg_.broker.tracer)
      cfg_.broker.metrics
          ->counter("obs.trace.dropped", /*in_fingerprint=*/false)
          ->record_max(cfg_.broker.tracer->dropped_spans());
    TelemetryOptions topts;
    topts.tool = "serve";
    topts.metrics = cfg_.broker.metrics;
    topts.tracer = cfg_.broker.tracer;
    topts.gauges.push_back(
        {"service.queue_depth", static_cast<double>(broker_.queue_depth())});
    topts.gauges.push_back(
        {"service.in_flight", static_cast<double>(broker_.in_flight())});
    topts.gauges.push_back({"service.workers_alive",
                            static_cast<double>(broker_.workers_alive())});
    topts.gauges.push_back(
        {"service.connections", static_cast<double>(live_connections())});
    if (cfg_.broker.window) {
      const std::uint64_t now = broker_.now_us();
      const struct {
        const char* prefix;
        std::uint64_t horizon_us;
      } spans[] = {{"service.window.1m", 60'000'000ull},
                   {"service.window.5m", 300'000'000ull}};
      for (const auto& span : spans) {
        const RollingWindow::Stats s =
            cfg_.broker.window->stats(now, span.horizon_us);
        const std::string p = span.prefix;
        topts.gauges.push_back({p + ".rate", s.rate_per_s});
        topts.gauges.push_back({p + ".p50", static_cast<double>(s.p50)});
        topts.gauges.push_back({p + ".p95", static_cast<double>(s.p95)});
        topts.gauges.push_back({p + ".p99", static_cast<double>(s.p99)});
      }
    }
    session->deliver(
        seq, wire.op == WireRequest::Op::kStats
                 ? render_stats_response(wire.id, telemetry_to_json(topts))
                 : render_metrics_response(wire.id,
                                           render_prometheus_text(topts)));
    return;
  }
  if (wire.op == WireRequest::Op::kHealth) {
    HealthStatus health;
    health.draining = broker_.draining();
    health.queue_depth = broker_.queue_depth();
    health.in_flight = broker_.in_flight();
    health.workers = broker_.config().workers;
    health.workers_alive = broker_.workers_alive();
    health.connections = live_connections();
    health.uptime_us = broker_.now_us();
    session->deliver(seq, render_health_response(wire.id, health));
    return;
  }
  ParseError perr;
  std::optional<ConstraintSet> cs = parse_constraints(wire.constraints, &perr);
  if (!cs) {
    SolveResponse resp;
    resp.id = wire.id;
    resp.status = StatusCode::kParseError;
    resp.parse_error = perr;
    session->deliver(seq, render_response(resp, nullptr));
    return;
  }
  SolveOptions opts = broker_.config().base_options;
  if (!apply_wire_options(wire, &opts)) {
    session->deliver(
        seq, render_error_response(wire.id, StatusCode::kParseError,
                                   "unknown pipeline '" + wire.pipeline +
                                       "'"));
    return;
  }
  // The response renders codes by name in the *request's* symbol order, so
  // keep a copy of the table across the solve.
  SymbolTable symbols = cs->symbols();
  SolveRequest req;
  req.id = wire.id;
  req.constraints = std::move(*cs);
  req.options = std::move(opts);
  req.options.exec.timeout_seconds = wire.deadline_seconds;
  broker_.submit(std::move(req),
                 [session, seq, symbols = std::move(symbols)](
                     SolveResponse resp) {
                   session->deliver(seq, render_response(resp, &symbols));
                 });
}

bool Server::consume_lines(const std::shared_ptr<Session>& session,
                           std::string* buffer) {
  std::size_t start = 0;
  for (std::size_t nl; (nl = buffer->find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (nl - start > cfg_.max_line_bytes) {
      buffer->clear();
      return false;
    }
    std::string line = buffer->substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    handle_line(session, session->alloc_seq(), line);
  }
  buffer->erase(0, start);
  if (buffer->size() > cfg_.max_line_bytes) {
    buffer->clear();
    return false;
  }
  return true;
}

void Server::reject_oversized(const std::shared_ptr<Session>& session) {
  count_conn("service.conn.oversized_line");
  broker_.log_transport_event("conn_oversized", "parse_error");
  session->deliver(session->alloc_seq(),
                   render_oversized_line_response(cfg_.max_line_bytes));
}

int Server::run_pipe(int in_fd, int out_fd) {
  if (signal_pipe_[0] < 0) return -1;
  return run_loop(/*listen_fd=*/-1, /*unlink_path=*/"", in_fd, out_fd);
}

int Server::run_loop(int listen_fd, const std::string& unlink_path, int in_fd,
                     int out_fd) {
  if (listen_fd >= 0) {
    set_cloexec(listen_fd);
    set_nonblock(listen_fd);
  }
  int wake[2];
  if (::pipe(wake) != 0) {
    if (listen_fd >= 0) ::close(listen_fd);
    last_error_ = "cannot create wake pipe";
    return -1;
  }
  for (const int fd : wake) {
    set_cloexec(fd);
    set_nonblock(fd);
  }

  using Clock = std::chrono::steady_clock;
  struct Conn {
    std::shared_ptr<Session> session;
    std::string buffer;
    bool eof = false;  ///< stop reading; reap once the session drained
    bool borrowed = false;  ///< the pipe session: fds never shut or closed
    Clock::time_point last_activity;
  };
  // Keyed by the read fd; an fd is erased (and only then closed) before it
  // could ever be reused by a new accept, so keys never alias.
  std::map<int, Conn> conns;
  const auto open_conn = [&](int fd, int write_fd, bool borrowed) {
    Conn conn;
    conn.borrowed = borrowed;
    conn.last_activity = Clock::now();
    const int wake_fd = wake[1];
    conn.session = std::make_shared<Session>(
        write_fd, /*is_socket=*/!borrowed, cfg_.write_timeout_ms, [wake_fd] {
          const char byte = 'r';
          [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
        });
    conns.emplace(fd, std::move(conn));
    live_conns_.fetch_add(1, std::memory_order_relaxed);
  };
  const auto reap = [&](int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    if (!it->second.borrowed) {
      ::close(fd);
      count_conn("service.conn.reaped");
    }
    conns.erase(it);
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
  };
  // Transition a connection into the no-more-reads state; reaps right
  // away when nothing is pending (the common churn case), otherwise the
  // final deliver() pokes the wake pipe.
  const auto end_reads = [&](int fd, Conn& conn) {
    if (!conn.borrowed) ::shutdown(fd, SHUT_RD);
    conn.eof = true;
    if (conn.session->mark_eof()) reap(fd);
  };

  // The pipe session has no listener, idle timeout or admission cap; the
  // loop ends once it is reaped.
  const bool pipe_mode = in_fd >= 0;
  if (pipe_mode) open_conn(in_fd, out_fd, /*borrowed=*/true);
  const int idle_timeout_ms = pipe_mode ? 0 : cfg_.idle_timeout_ms;

  char chunk[65536];
  std::vector<struct pollfd> fds;
  while (!pipe_mode || !conns.empty()) {
    fds.clear();
    fds.push_back({listen_fd, POLLIN, 0});  // poll() skips a negative fd
    fds.push_back({signal_pipe_[0], POLLIN, 0});
    fds.push_back({wake[0], POLLIN, 0});
    for (const auto& [fd, conn] : conns)
      if (!conn.eof) fds.push_back({fd, POLLIN, 0});

    int timeout_ms = -1;
    if (idle_timeout_ms > 0) {
      const auto now = Clock::now();
      for (const auto& [fd, conn] : conns) {
        if (conn.eof) continue;
        const auto deadline =
            conn.last_activity + std::chrono::milliseconds(idle_timeout_ms);
        const long long left =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count();
        const int left_ms =
            left < 1 ? 1 : static_cast<int>(std::min<long long>(left, INT_MAX));
        if (timeout_ms < 0 || left_ms < timeout_ms) timeout_ms = left_ms;
      }
    }

    const int pr = ::poll(fds.data(), fds.size(), timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) break;  // drain requested

    if (fds[2].revents & POLLIN) {
      // Deliver-then-reap handoff: a worker finished the last response of
      // an EOF'd connection. Drain the wake bytes, then reap everything
      // drained (the check is authoritative, the byte just a doorbell).
      char drainbuf[256];
      while (::read(wake[0], drainbuf, sizeof drainbuf) > 0) {
      }
      std::vector<int> done;
      for (const auto& [fd, conn] : conns)
        if (conn.eof && conn.session->drained()) done.push_back(fd);
      for (const int fd : done) reap(fd);
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int cfd = ::accept(listen_fd, nullptr, nullptr);
        if (cfd < 0) break;  // EAGAIN, or a transient accept error
        set_cloexec(cfd);
        set_nonblock(cfd);
        if (cfg_.max_conns > 0 &&
            static_cast<int>(conns.size()) >= cfg_.max_conns) {
          // Admission: deterministic busy line, then close. Never gets a
          // Session, so it costs nothing beyond this write.
          count_conn("service.conn.rejected_overload");
          broker_.log_transport_event("conn_busy", "overloaded");
          write_all(cfd, /*is_socket=*/true, render_busy_response() + "\n",
                    /*timeout_ms=*/50);
          ::close(cfd);
          continue;
        }
        count_conn("service.conn.accepted");
        open_conn(cfd, cfd, /*borrowed=*/false);
      }
    }

    for (std::size_t i = 3; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const int fd = fds[i].fd;
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;  // reaped this round
      Conn& conn = it->second;
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK))
        continue;
      if (n <= 0) {
        // Client stopped sending (EOF or error). An unterminated final
        // line is still a request; responses for everything read still
        // flow, then the connection is reaped.
        conn.buffer += '\n';
        consume_lines(conn.session, &conn.buffer);
        end_reads(fd, conn);
        continue;
      }
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      conn.last_activity = Clock::now();
      if (!consume_lines(conn.session, &conn.buffer)) {
        reject_oversized(conn.session);
        end_reads(fd, conn);
      }
    }

    if (idle_timeout_ms > 0) {
      const auto now = Clock::now();
      std::vector<int> idle;
      for (const auto& [fd, conn] : conns)
        if (!conn.eof &&
            now - conn.last_activity >=
                std::chrono::milliseconds(idle_timeout_ms))
          idle.push_back(fd);
      for (const int fd : idle) {
        count_conn("service.conn.idle_closed");
        broker_.log_transport_event("conn_idle", "ok");
        end_reads(fd, conns.at(fd));
      }
    }
  }

  if (listen_fd >= 0) ::close(listen_fd);
  if (!unlink_path.empty()) ::unlink(unlink_path.c_str());
  // Answer or reject everything accepted, then flush each remaining
  // connection's output and reap it. After drain() every submitted
  // request's callback has fired, so wait_flushed() terminates.
  broker_.drain(DrainMode::kRejectQueued);
  for (auto& [fd, conn] : conns) {
    if (!conn.borrowed) ::shutdown(fd, SHUT_RD);
    conn.session->mark_eof();
  }
  for (auto& [fd, conn] : conns) conn.session->wait_flushed();
  while (!conns.empty()) reap(conns.begin()->first);
  for (const int fd : wake) ::close(fd);
  return 0;
}

int Server::run_unix_socket(const std::string& path) {
  last_error_.clear();
  if (signal_pipe_[0] < 0) {
    last_error_ = "signal pipe unavailable";
    return -1;
  }
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    last_error_ = "socket path too long: " + path;
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // Never silently delete a live server's socket: probe-connect first.
  // Only a stale path (nothing accepting behind it) is unlinked.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      last_error_ = "refusing to replace non-socket path " + path;
      return -1;
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const int rc = ::connect(
          probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
      ::close(probe);
      if (rc == 0) {
        last_error_ = "socket path " + path + " is in use by a live server";
        return -1;
      }
    }
    ::unlink(path.c_str());
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    last_error_ = std::string("cannot create socket: ") + std::strerror(errno);
    return -1;
  }
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd, cfg_.backlog) != 0) {
    last_error_ = "cannot bind " + path + ": " + std::strerror(errno);
    ::close(listen_fd);
    return -1;
  }
  return run_loop(listen_fd, path);
}

int Server::run_tcp(const std::string& host_port) {
  last_error_.clear();
  if (signal_pipe_[0] < 0) {
    last_error_ = "signal pipe unavailable";
    return -1;
  }
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 >= host_port.size()) {
    last_error_ = "--tcp expects HOST:PORT, got '" + host_port + "'";
    return -1;
  }
  std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
    host = host.substr(1, host.size() - 2);  // "[::1]:80" -> "::1"

  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                port.c_str(), &hints, &res);
  if (gai != 0) {
    last_error_ =
        "cannot resolve " + host_port + ": " + ::gai_strerror(gai);
    return -1;
  }
  int listen_fd = -1;
  std::string bind_err = "no usable address";
  for (const addrinfo* ai = res; ai; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      bind_err = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, cfg_.backlog) == 0) {
      listen_fd = fd;
      break;
    }
    bind_err = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (listen_fd < 0) {
    last_error_ = "cannot bind " + host_port + ": " + bind_err;
    return -1;
  }
  sockaddr_storage bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    if (bound.ss_family == AF_INET)
      bound_port_.store(
          ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port),
          std::memory_order_release);
    else if (bound.ss_family == AF_INET6)
      bound_port_.store(
          ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port),
          std::memory_order_release);
  }
  return run_loop(listen_fd, /*unlink_path=*/"");
}

namespace {

std::atomic<Server*> g_drain_server{nullptr};

void drain_signal_handler(int) {
  Server* server = g_drain_server.load(std::memory_order_relaxed);
  if (server) server->request_drain();
}

}  // namespace

ScopedDrainSignals::ScopedDrainSignals(Server* server) {
  g_drain_server.store(server, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, &old_term_);
  ::sigaction(SIGINT, &sa, &old_int_);
  struct sigaction ignore{};
  ignore.sa_handler = SIG_IGN;
  ::sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPIPE, &ignore, &old_pipe_);
}

ScopedDrainSignals::~ScopedDrainSignals() {
  ::sigaction(SIGTERM, &old_term_, nullptr);
  ::sigaction(SIGINT, &old_int_, nullptr);
  ::sigaction(SIGPIPE, &old_pipe_, nullptr);
  g_drain_server.store(nullptr, std::memory_order_relaxed);
}

}  // namespace encodesat
