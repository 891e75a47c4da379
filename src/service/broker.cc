#include "service/broker.h"

#include <utility>

#include "obs/counters.h"
#include "obs/reqlog.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace encodesat {

namespace {

/// Every counter the broker can emit, registered up front so the telemetry
/// name set does not depend on which paths ran.
constexpr const char* kServiceCounters[] = {
    "service.accepted",         "service.rejected_overload",
    "service.completed",        "service.coalesced",
    "service.deadline_expired", "service.drained",
};

/// Same for the latency histograms (microseconds). Non-fingerprint: they
/// observe wall time (obs/histogram.h determinism contract).
constexpr const char* kServiceHistograms[] = {
    "service.latency.total",
    "service.latency.queue",
    "service.latency.solve",
};

std::uint64_t us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// How the request was served, for the request log.
const char* disposition_of(const SolveResponse& resp) {
  if (resp.result.coalesced) return "coalesced";
  if (resp.result.from_cache) return "hit";
  return "solve";
}

}  // namespace

Broker::Broker(BrokerConfig cfg)
    : cfg_(std::move(cfg)), epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.metrics) {
    for (const char* name : kServiceCounters)
      cfg_.metrics->counter(name, /*in_fingerprint=*/false);
    for (const char* name : kServiceHistograms)
      cfg_.metrics->histogram(name, /*in_fingerprint=*/false);
  }
  if (!cfg_.solve_fn)
    cfg_.solve_fn = [](const SolveRequest& req) { return solve(req); };
  workers_alive_.store(cfg_.workers, std::memory_order_relaxed);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Broker::~Broker() { drain(DrainMode::kRejectQueued); }

void Broker::count(const char* name, std::uint64_t v) {
  if (cfg_.metrics) cfg_.metrics->counter(name, false)->add(v);
}

std::uint64_t Broker::now_us() const {
  return us_between(epoch_, std::chrono::steady_clock::now());
}

bool Broker::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void Broker::log_request(const SolveResponse& resp, const char* disposition,
                         std::uint64_t queue_us, std::uint64_t solve_us,
                         std::uint64_t total_us, const StageStats* stats) {
  if (!cfg_.reqlog) return;
  ReqLogRecord rec;
  rec.id = resp.id;
  rec.status = status_code_name(resp.status);
  rec.disposition = disposition;
  rec.queue_us = queue_us;
  rec.solve_us = solve_us;
  rec.total_us = total_us;
  rec.truncation = truncation_name(resp.result.truncation);
  rec.work = resp.result.stats.work;
  rec.error = resp.status != StatusCode::kOk &&
              resp.status != StatusCode::kInfeasible;
  rec.counters.emplace_back("uncovered", resp.result.uncovered.size());
  rec.counters.emplace_back("bits", resp.result.encoding.bits);
  rec.stats = stats;
  cfg_.reqlog->log(rec);
}

void Broker::log_transport_event(const char* disposition,
                                 const char* status) {
  if (!cfg_.reqlog) return;
  ReqLogRecord rec;
  rec.status = status;
  rec.disposition = disposition;
  rec.error = true;  // always logged, never sampled away
  cfg_.reqlog->log(rec);
}

SolveResponse Broker::rejected(const std::string& id, const char* why) {
  SolveResponse resp;
  resp.id = id;
  resp.status = StatusCode::kOverloaded;
  resp.detail = why;
  return resp;
}

bool Broker::submit(SolveRequest req, Callback cb) {
  Item item;
  double deadline_s = req.options.exec.timeout_seconds > 0
                          ? req.options.exec.timeout_seconds
                          : cfg_.default_deadline_seconds;
  // The wire layer already bounds deadline_s, but submit() is a public
  // entry point: past ~1e9 s the duration_cast below overflows on
  // nanosecond-resolution clocks, so clamp for every caller.
  if (deadline_s > 1e9) deadline_s = 1e9;
  item.submitted = std::chrono::steady_clock::now();
  if (deadline_s > 0) {
    item.has_deadline = true;
    item.deadline =
        item.submitted +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(deadline_s));
  }
  item.req = std::move(req);
  item.cb = std::move(cb);

  std::unique_lock<std::mutex> lock(mu_);
  const bool full = cfg_.max_queue != 0 && queue_.size() >= cfg_.max_queue;
  if (draining_ || full) {
    count("service.rejected_overload");
    const char* why = draining_ ? "server draining" : "queue full";
    lock.unlock();
    SolveResponse resp = rejected(item.req.id, why);
    // Rejections never queue: latencies are zero and no histogram
    // observation happens, but the request log still records them.
    log_request(resp, "rejected", 0, 0, 0, nullptr);
    item.cb(std::move(resp));
    return false;
  }
  count("service.accepted");
  queue_.push_back(std::move(item));
  lock.unlock();
  cv_.notify_one();
  return true;
}

void Broker::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) break;  // draining and nothing left
      item = std::move(queue_.front());
      queue_.pop_front();
      if (reject_queued_) {
        // SIGTERM drain: everything still queued fails fast.
        count("service.drained");
        lock.unlock();
        SolveResponse resp = rejected(item.req.id, "server draining");
        const std::uint64_t waited =
            us_between(item.submitted, std::chrono::steady_clock::now());
        log_request(resp, "drained", waited, 0, waited, nullptr);
        item.cb(std::move(resp));
        continue;
      }
    }
    run_item(std::move(item));
  }
  workers_alive_.fetch_sub(1, std::memory_order_relaxed);
}

void Broker::run_item(Item item) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  const auto dequeued = std::chrono::steady_clock::now();
  const std::uint64_t queue_us = us_between(item.submitted, dequeued);
  if (item.has_deadline && dequeued >= item.deadline) {
    count("service.deadline_expired");
    SolveResponse resp;
    resp.id = item.req.id;
    resp.status = StatusCode::kTimeout;
    resp.result.status = SolveResult::Status::kTruncated;
    resp.result.truncated = true;
    resp.result.truncation = Truncation::kDeadline;
    resp.detail = "deadline expired while queued";
    if (cfg_.metrics) {
      cfg_.metrics->histogram("service.latency.total", false)
          ->observe(queue_us);
      cfg_.metrics->histogram("service.latency.queue", false)
          ->observe(queue_us);
    }
    if (cfg_.window) cfg_.window->record(now_us(), queue_us);
    log_request(resp, "expired", queue_us, 0, queue_us, nullptr);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    item.cb(std::move(resp));
    return;
  }
  // Queue wait counts against the request: solve with what remains.
  item.req.options.exec.timeout_seconds =
      item.has_deadline
          ? std::chrono::duration<double>(item.deadline - dequeued).count()
          : 0;
  // Infra wiring is the broker's, not the client's: one shared cache and
  // in-flight table, the server's tracer/metrics.
  item.req.options.cache.store = cfg_.cache;
  item.req.options.cache.single_flight = &inflight_;
  item.req.options.cache.enabled = cfg_.cache != nullptr;
  item.req.options.exec.tracer = cfg_.tracer;
  item.req.options.exec.metrics = cfg_.metrics;
  SolveResponse resp = cfg_.solve_fn(item.req);
  resp.id = item.req.id;
  const auto done = std::chrono::steady_clock::now();
  const std::uint64_t solve_us = us_between(dequeued, done);
  const std::uint64_t total_us = us_between(item.submitted, done);
  count("service.completed");
  if (resp.result.coalesced) count("service.coalesced");
  if (resp.status == StatusCode::kTimeout &&
      resp.result.truncation == Truncation::kDeadline)
    count("service.deadline_expired");
  if (cfg_.metrics) {
    cfg_.metrics->histogram("service.latency.total", false)
        ->observe(total_us);
    cfg_.metrics->histogram("service.latency.queue", false)
        ->observe(queue_us);
    cfg_.metrics->histogram("service.latency.solve", false)
        ->observe(solve_us);
  }
  if (cfg_.window) cfg_.window->record(now_us(), total_us);
  log_request(resp, disposition_of(resp), queue_us, solve_us, total_us,
              &resp.result.stats);
  // Leave the gauge before delivering, as with the histograms above: a
  // client that has read its response never sees the request in flight.
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  item.cb(std::move(resp));
}

void Broker::drain(DrainMode mode) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!draining_) {
      draining_ = true;
      reject_queued_ = mode == DrainMode::kRejectQueued;
    }
  }
  cv_.notify_all();
  // Serialize joiners; later callers see joinable() == false and fall
  // through once the first drain finished.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

std::size_t Broker::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace encodesat
