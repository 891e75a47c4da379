// Request broker: the concurrency heart of `encodesat serve`.
//
// A Broker owns a bounded FIFO queue and a fixed pool of worker threads.
// Transports (src/service/server.h) parse wire requests into SolveRequest
// and submit() them with a completion callback; workers drain the queue
// through the unified solve() entry point, with every request sharing one
// SolveCache and one InFlightTable so concurrent duplicates coalesce onto
// a single pipeline run (cache/inflight.h).
//
// Semantics, in the order a request meets them:
//
//  * Admission: when the queue holds max_queue requests (or a drain has
//    begun), submit() rejects *inline* — the callback fires with
//    StatusCode::kOverloaded on the submitting thread and submit() returns
//    false. Rejection is explicit and immediate, never a silent drop.
//  * Deadline: each request's deadline (its options.exec.timeout_seconds,
//    or the broker default) is fixed as an absolute time point at submit,
//    so time spent queued counts against it. A request whose deadline has
//    already passed at dequeue completes as kTimeout/deadline without
//    touching the solver; one dequeued in time runs with the *remaining*
//    budget.
//  * Drain: drain(kFinishQueued) — EOF semantics — stops admission and
//    lets workers finish everything queued. drain(kRejectQueued) — SIGTERM
//    semantics — additionally completes still-queued requests as
//    kOverloaded ("server draining"); requests already on a worker always
//    run to completion. Both join the workers before returning, so after
//    drain() every accepted request has had its callback invoked exactly
//    once and the shared cache is quiescent (safe to --cache-save).
//
// Callbacks run on broker worker threads (or the submitting thread, for
// inline rejections) and must be thread-safe; ordering across requests is
// scheduling-dependent, so transports needing in-order delivery sequence
// responses themselves (server.cc's Session does).
//
// Counters (registered non-fingerprint — they depend on scheduling):
//   service.accepted, service.rejected_overload, service.completed,
//   service.coalesced, service.deadline_expired, service.drained.
// Latency histograms (also non-fingerprint — they observe wall time):
//   service.latency.total, service.latency.queue, service.latency.solve,
// each in microseconds, observed for every request that reached a worker
// (inline rejections never queue and are excluded). The optional
// RollingWindow receives end-to-end latencies on the broker's own
// monotonic clock (now_us()); the optional RequestLog gets one record per
// completed submit() callback, rejections included.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/inflight.h"
#include "core/solver.h"

namespace encodesat {

class RequestLog;   // obs/reqlog.h
class RollingWindow;  // obs/window.h
class Tracer;       // obs/trace.h

enum class DrainMode {
  kFinishQueued,  ///< stop admission, run everything already queued (EOF)
  kRejectQueued,  ///< stop admission, fail queued as overloaded (SIGTERM)
};

struct BrokerConfig {
  /// Worker threads draining the queue (min 1).
  int workers = 2;
  /// Queue depth triggering admission rejection; 0 = unbounded.
  std::size_t max_queue = 64;
  /// Deadline applied to requests that carry none; 0 = none.
  double default_deadline_seconds = 0;
  /// Template options for each solve. The broker overwrites the cache
  /// wiring (cache.store / cache.single_flight), the exec tracer and
  /// metrics pointers below and exec.timeout_seconds (the time left before
  /// the request's deadline); everything else passes through.
  SolveOptions base_options;
  /// Shared solve cache; null runs uncached (coalescing still applies).
  SolveCache* cache = nullptr;
  /// Counter registry and span sink for every solve; a Server also renders
  /// them in its `stats`/`metrics` ops. Both optional and borrowed.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Rolling end-to-end latency window (microseconds, broker clock), also
  /// scraped by a Server for its 1m/5m gauges; null disables. Borrowed,
  /// must outlive the broker.
  RollingWindow* window = nullptr;
  /// Structured per-request NDJSON log; null disables. Borrowed.
  RequestLog* reqlog = nullptr;
  /// Test seam: replaces the core solve() call when set. Admission,
  /// deadline and drain handling still apply; the injected function sees
  /// the fully-prepared request (infra wired, options.exec.timeout_seconds
  /// = remaining time). Must be thread-safe.
  std::function<SolveResponse(const SolveRequest&)> solve_fn;
};

class Broker {
 public:
  /// Completion callback; invoked exactly once per submit() call (counting
  /// inline rejections). See the threading contract above.
  using Callback = std::function<void(SolveResponse)>;

  explicit Broker(BrokerConfig cfg);
  /// Drains with kRejectQueued when the caller never drained explicitly.
  ~Broker();

  /// Queues one request. Returns false — after invoking `cb` inline with
  /// kOverloaded — when the queue is full or the broker is draining.
  bool submit(SolveRequest req, Callback cb);

  /// Stops admission and joins the workers (see DrainMode). Idempotent;
  /// concurrent callers block until the first drain completes.
  void drain(DrainMode mode);

  /// Transport disposition hook: appends one request-log line for a
  /// connection-lifecycle event that never produced a SolveRequest — an
  /// admission rejection at accept time ("conn_busy"), an oversized line
  /// ("conn_oversized") or an idle close ("conn_idle"). Lifecycle events
  /// bypass sampling (they are operational errors); no-op without a
  /// configured request log. Thread-safe.
  void log_transport_event(const char* disposition, const char* status);

  const BrokerConfig& config() const { return cfg_; }
  InFlightTable& single_flight() { return inflight_; }
  /// Requests currently queued (diagnostics; racy by nature).
  std::size_t queue_depth() const;
  /// Requests currently on a worker, between dequeue and callback
  /// (diagnostics; racy by nature).
  int in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Worker threads that have not yet exited their loop; equals
  /// config().workers until a drain, 0 after. The `health` op's liveness
  /// signal.
  int workers_alive() const {
    return workers_alive_.load(std::memory_order_relaxed);
  }
  /// True once a drain has begun (admission closed).
  bool draining() const;
  /// Monotonic microseconds since broker construction — the service clock
  /// fed to the rolling window.
  std::uint64_t now_us() const;

 private:
  struct Item {
    SolveRequest req;
    Callback cb;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point submitted{};
  };

  void worker_loop();
  void run_item(Item item);
  void count(const char* name, std::uint64_t v = 1);
  void log_request(const SolveResponse& resp, const char* disposition,
                   std::uint64_t queue_us, std::uint64_t solve_us,
                   std::uint64_t total_us, const StageStats* stats);
  static SolveResponse rejected(const std::string& id, const char* why);

  BrokerConfig cfg_;
  InFlightTable inflight_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> workers_alive_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool draining_ = false;       ///< admission closed
  bool reject_queued_ = false;  ///< drain mode was kRejectQueued
  std::mutex join_mu_;          ///< serializes drain() joiners
  std::vector<std::thread> workers_;
};

}  // namespace encodesat
