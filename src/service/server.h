// Transports for the solve service (`encodesat serve`).
//
// Three NDJSON transports over one Broker:
//
//  * run_pipe(in_fd, out_fd) — one session over a pair of byte streams
//    (stdin/stdout in the CLI; pipe pairs in tests). Ends once EOF was
//    read and everything already read is answered.
//  * run_unix_socket(path) — a listening Unix-domain socket.
//  * run_tcp(host_port) — a listening TCP socket ("HOST:PORT", IPv4 or
//    IPv6, SO_REUSEADDR; port 0 picks an ephemeral port, readable via
//    bound_port()).
//
// All three run one connection-lifecycle event loop: a single thread
// poll()s {listen fd, signal pipe, wake pipe, every live connection fd},
// parses NDJSON lines in place and dispatches them into the broker. Pipe
// mode is that loop with no listener and one borrowed connection (the fd
// pair is never made non-blocking, shut down or closed, and is not counted
// in `service.conn.accepted`/`reaped`). There are no per-connection reader
// threads; a connection is three fields of state (fd, Session, read
// buffer) and is **reaped eagerly** — the moment its client is gone and
// its last response was written, the fd is closed and the Session freed,
// so a long-running server under client churn holds resources
// proportional to *live* connections, never to connections ever accepted.
//
// Lifecycle edges, all observable as `service.conn.*` counters and as
// the `connections` gauge in the `health`/`metrics` ops:
//
//  * Admission (`max_conns`): a connection accepted past the cap is
//    answered with one "server busy" overloaded line and closed
//    immediately — it never gets a Session.
//  * Line cap (`max_line_bytes`): a client that streams bytes without a
//    newline past the cap gets one parse_error line, then its
//    connection is closed (after every pending response flushed).
//  * Idle timeout (`idle_timeout_ms`): a connection with no client bytes
//    for that long is closed once its pending responses flushed.
//  * EOF / client error: the connection stops reading; an unterminated
//    final line is still a request, responses for requests already read
//    still flow, then the connection is reaped.
//
// Reaping preserves the in-order response guarantee via a
// deliver-then-reap handoff: broker workers deliver responses through
// the connection's Session (in request order, as before); the delivery
// that completes the last outstanding slot of an EOF'd connection
// notifies the event loop over the wake pipe, and the *loop* — never a
// worker — closes the fd and drops the Session. Workers hold the Session
// by shared_ptr, so a response in flight can never race the reap.
//
// The loop polls a self-pipe alongside its input fds. request_drain()
// (async-signal-safe; ScopedDrainSignals routes SIGTERM/SIGINT to it)
// makes the loop stop reading and drain kRejectQueued on every transport,
// also in pipe mode after EOF: in-flight solves finish and are answered,
// queued requests complete as `overloaded`, request lines never read are
// never answered. run_* returns only after the broker drained and every
// accepted response was written, so the caller can flush caches
// (--cache-save) and telemetry safely.
//
// Responses are written strictly in request order per session (the broker
// completes out of order; a per-session sequence number + reorder buffer
// restores arrival order), which keeps pipe-mode output byte-stable and
// golden-testable. A client that disappears mid-session (write error) or
// stops reading (no write progress for write_timeout_ms) has its
// remaining output discarded; the solves still run. Writes happen outside
// the session lock so a slow client never blocks response delivery for
// other requests beyond the ordering it asked for.
#pragma once

#include <atomic>
#include <csignal>
#include <cstddef>
#include <memory>
#include <string>

#include "service/broker.h"

namespace encodesat {

struct ServerConfig {
  /// The `stats` and `metrics` ops render the broker's registry, tracer and
  /// rolling window; a null window omits the 1m/5m gauges.
  BrokerConfig broker;
  /// Stall budget per response write: a client whose output fd makes no
  /// progress for this long is treated as gone — the session goes dead
  /// and its remaining output is discarded, instead of a stuck write
  /// wedging a broker worker (and with it the SIGTERM drain, which joins
  /// the workers). <= 0 waits forever.
  int write_timeout_ms = 10000;
  /// listen(2) backlog for the socket transports (`--backlog`).
  int backlog = 128;
  /// Admission cap on live connections (`--max-conns`); a connection
  /// accepted past the cap is answered "server busy" and closed.
  /// 0 = unlimited.
  int max_conns = 0;
  /// Per-connection line-buffer cap (`--max-line-bytes`): a client that
  /// sends this many bytes without a newline gets a parse_error and its
  /// connection closed. Applies to pipe mode too (the session ends as if
  /// on EOF). Must be >= 1.
  std::size_t max_line_bytes = 1u << 20;
  /// Close connections with no client bytes for this long
  /// (`--idle-timeout`); 0 disables. Socket transports only.
  int idle_timeout_ms = 0;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one session reading NDJSON requests from `in_fd` and writing
  /// responses to `out_fd` until EOF (then answers everything read) or
  /// request_drain(). Both fds are borrowed. Returns 0, or -1 when the
  /// server's own plumbing failed (never for client errors).
  int run_pipe(int in_fd, int out_fd);

  /// Binds `path` and serves connections until request_drain(). A stale
  /// socket file (no listener behind it) is unlinked and replaced; a
  /// *live* one — probed with a connect before any unlink — is refused,
  /// so starting a second server cannot delete a running server's
  /// socket. Returns 0, or -1 on failure (see last_error()).
  int run_unix_socket(const std::string& path);

  /// Binds "HOST:PORT" (IPv4, IPv6 as "[::1]:PORT", empty host = all
  /// interfaces, port 0 = ephemeral) with SO_REUSEADDR and serves
  /// connections until request_drain() — the same event loop, reaping,
  /// caps and drain semantics as the Unix-socket transport. Returns 0,
  /// or -1 on failure (see last_error()).
  int run_tcp(const std::string& host_port);

  /// Makes the running transport loop stop accepting input and drain
  /// kRejectQueued. Async-signal-safe (writes one byte to a self-pipe);
  /// callable from any thread, before or during run_*.
  void request_drain();

  Broker& broker() { return broker_; }

  /// The TCP listen port once run_tcp has bound (0 before); the way a
  /// caller using port 0 learns the ephemeral port.
  int bound_port() const { return bound_port_.load(std::memory_order_acquire); }

  /// Live (accepted, not yet reaped) connections — the `connections`
  /// gauge. 1 in pipe mode while the session is open.
  int live_connections() const {
    return live_conns_.load(std::memory_order_relaxed);
  }

  /// Diagnostic for the last run_* that returned -1 ("socket path X is in
  /// use by a live server", "cannot bind HOST:PORT: ...", ...).
  const std::string& last_error() const { return last_error_; }

 private:
  class Session;

  /// Dispatches one request line into the broker (or answers protocol
  /// errors / the stats op directly). `seq` orders the response.
  void handle_line(const std::shared_ptr<Session>& session, std::uint64_t seq,
                   const std::string& line);

  /// The one event loop behind every transport (see the file comment).
  /// Owns and closes `listen_fd` (-1 for none); `unlink_path` is unlinked
  /// on exit when non-empty. `in_fd` >= 0 adds the borrowed pipe session
  /// (responses to `out_fd`), and the loop returns once it is reaped.
  int run_loop(int listen_fd, const std::string& unlink_path, int in_fd = -1,
               int out_fd = -1);

  /// Extracts complete lines from `*buffer` (stripping \r, skipping
  /// blanks) and dispatches each through handle_line. Returns false when
  /// a line — or the unterminated remainder — exceeds max_line_bytes;
  /// the caller answers with the oversized shape and ends the session.
  bool consume_lines(const std::shared_ptr<Session>& session,
                     std::string* buffer);

  /// Counts + logs the oversized-line event and delivers its parse_error
  /// response through the session (in order, like any response).
  void reject_oversized(const std::shared_ptr<Session>& session);

  void count_conn(const char* name);

  ServerConfig cfg_;
  Broker broker_;
  int signal_pipe_[2] = {-1, -1};
  std::atomic<int> bound_port_{0};
  std::atomic<int> live_conns_{0};
  std::string last_error_;
};

/// Routes SIGTERM and SIGINT to server->request_drain() for its lifetime
/// (and ignores SIGPIPE, so vanished clients surface as write errors, not
/// process death). Restores the previous dispositions on destruction.
/// One instance at a time, from the main thread.
class ScopedDrainSignals {
 public:
  explicit ScopedDrainSignals(Server* server);
  ~ScopedDrainSignals();

  ScopedDrainSignals(const ScopedDrainSignals&) = delete;
  ScopedDrainSignals& operator=(const ScopedDrainSignals&) = delete;

 private:
  struct sigaction old_term_;
  struct sigaction old_int_;
  struct sigaction old_pipe_;
};

}  // namespace encodesat
