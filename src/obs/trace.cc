#include "obs/trace.h"

#include <atomic>
#include <ostream>

#include "util/strings.h"

namespace encodesat {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Thread-local cache: tracer id -> this thread's log. Linear scan — a
/// thread sees a handful of tracers over its lifetime. Entries for
/// destroyed tracers are dead weight but harmless: ids are never reused,
/// so a stale entry can never match a live tracer.
struct CacheEntry {
  std::uint64_t tracer_id;
  void* log;
};
thread_local std::vector<CacheEntry> t_log_cache;

}  // namespace

Tracer::Tracer(std::size_t capacity_per_thread)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadLog* Tracer::log_for_this_thread() {
  for (const CacheEntry& e : t_log_cache)
    if (e.tracer_id == id_) return static_cast<ThreadLog*>(e.log);
  std::lock_guard<std::mutex> lock(mu_);
  logs_.emplace_back();
  ThreadLog* log = &logs_.back();
  log->tid = static_cast<int>(logs_.size());
  t_log_cache.push_back({id_, log});
  return log;
}

void Tracer::begin_span(const char* name) {
  ThreadLog* log = log_for_this_thread();
  if (log->open_dropped > 0 || log->events.size() >= capacity_) {
    // Once one begin is dropped, every nested begin must be dropped too so
    // the open_dropped depth pairs ends with the right (dropped) begins.
    ++log->open_dropped;
    ++log->dropped;
    ++log->dropped_spans;
    return;
  }
  log->events.push_back({name, now_us(), 'B'});
}

void Tracer::end_span(const char* name) {
  ThreadLog* log = log_for_this_thread();
  if (log->open_dropped > 0) {
    --log->open_dropped;
    ++log->dropped;
    return;
  }
  // Matching begin was recorded: always append, even past capacity, to
  // keep the trace balanced (overshoot bounded by nesting depth).
  log->events.push_back({name, now_us(), 'E'});
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const ThreadLog& log : logs_) {
    for (const Event& e : log.events) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\""
          << e.phase << "\",\"ts\":" << e.ts_us
          << ",\"pid\":1,\"tid\":" << log.tid << '}';
    }
  }
  std::uint64_t dropped = 0;
  std::uint64_t dropped_spans = 0;
  std::size_t events = 0;
  for (const ThreadLog& log : logs_) {
    dropped += log.dropped;
    dropped_spans += log.dropped_spans;
    events += log.events.size();
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"schema\":\"encodesat-trace-v1\",\"events\":" << events
      << ",\"dropped_events\":" << dropped
      << ",\"dropped_spans\":" << dropped_spans << "}}";
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const ThreadLog& log : logs_) n += log.events.size();
  return n;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const ThreadLog& log : logs_) n += log.dropped;
  return n;
}

std::uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const ThreadLog& log : logs_) n += log.dropped_spans;
  return n;
}

std::map<std::string, std::size_t> Tracer::span_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::size_t> counts;
  for (const ThreadLog& log : logs_)
    for (const Event& e : log.events)
      if (e.phase == 'B') ++counts[e.name];
  return counts;
}

bool Tracer::spans_balanced() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ThreadLog& log : logs_) {
    std::vector<const char*> stack;
    for (const Event& e : log.events) {
      if (e.phase == 'B') {
        stack.push_back(e.name);
      } else {
        if (stack.empty() ||
            std::string(stack.back()) != std::string(e.name))
          return false;
        stack.pop_back();
      }
    }
    if (!stack.empty()) return false;
  }
  return true;
}

}  // namespace encodesat
