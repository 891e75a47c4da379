// Shared execution context for the encoding pipeline.
//
// Every stage of the paper's flow (Fig. 7: initial dichotomies -> raise ->
// prime generation -> unate covering) historically carried its own ad-hoc
// budget knob (`max_terms`, `max_work`, `max_nodes`, ...). This header
// unifies them behind three small pieces:
//
//  * `Budget`    — a wall-clock deadline, a cumulative work budget and a
//                  cooperative cancellation flag, safe to poll and charge
//                  from many threads at once. The first limit to trip is
//                  recorded as the `Truncation` reason.
//  * `StageStats`— a per-stage observability record (elapsed time, work
//                  units, item counts, truncation reason) forming a tree
//                  that mirrors the pipeline, serializable as JSON.
//  * `ExecContext` / `StageScope` — the plumbing handed down the call
//                  chain: a borrowed budget, a stats node to report into
//                  and a thread count for the parallel fan-out paths.
//
// Determinism contract: work budgets, term/node limits and thread counts
// never change *which* result is produced, only whether a stage truncates —
// and work-based truncation points are independent of the thread count.
// Wall-clock deadlines and cancellation are inherently racy; they guarantee
// prompt, valid, truncation-flagged returns, not reproducible ones.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace encodesat {

/// Destination for begin/end span events. StageScope (and the TRACE_SCOPE
/// macro of src/obs/trace.h) emit into the sink installed on ExecContext;
/// with no sink installed the emission is a single null check. The concrete
/// implementation is obs::Tracer (per-thread buffers flushed as Chrome
/// trace-event JSON); this interface lives here so the util layer never
/// depends on src/obs.
///
/// Contract: begin/end pairs are strictly nested per thread (RAII), and
/// `name` must outlive the sink — pass string literals.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin_span(const char* name) = 0;
  virtual void end_span(const char* name) = 0;
};

class MetricsRegistry;  // src/obs/counters.h

/// Why a stage stopped before running to completion.
enum class Truncation : std::uint8_t {
  kNone = 0,    ///< ran to completion
  kDeadline,    ///< wall-clock deadline passed
  kWorkBudget,  ///< cumulative work budget exhausted
  kTermLimit,   ///< stage-local term budget (prime-generation SOP) exceeded
  kNodeLimit,   ///< stage-local node budget (branch-and-bound) exceeded
  kCancelled,   ///< cooperative cancellation requested
};

/// Stable lower-case name ("none", "deadline", ...) for logs and JSON.
const char* truncation_name(Truncation t);

/// Inverse of truncation_name; returns false for unknown names.
bool truncation_from_name(const char* name, Truncation* out);

/// Cooperative cancellation flag, sharable across threads. The requesting
/// side calls `cancel()`; pipeline stages observe it through Budget::poll.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// A shared, thread-safe budget for one solve. Charging work is a relaxed
/// atomic add (cheap enough for inner loops); polling the deadline reads
/// the clock and should be amortized (every fold / every ~1024 nodes).
/// Budgets are borrowed by the pipeline via ExecContext and must outlive
/// the call; they are neither copyable nor movable.
class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  Budget() = default;
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Sets the deadline `seconds` from now; <= 0 means already expired.
  void set_deadline_after(double seconds) {
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    has_deadline_ = true;
  }
  /// 0 means unlimited.
  void set_work_limit(std::uint64_t units) { work_limit_ = units; }
  /// The token is borrowed and may be shared by many budgets.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Adds `units` of work. Returns true while every limit still holds.
  /// Work accounting is deterministic: the same call sequence trips at the
  /// same charge regardless of wall-clock time or thread interleaving
  /// (the counter is a single atomic total).
  bool charge(std::uint64_t units) {
    if (work_limit_ != 0) {
      const std::uint64_t used =
          work_used_.fetch_add(units, std::memory_order_relaxed) + units;
      if (used > work_limit_) trip(Truncation::kWorkBudget);
    } else {
      work_used_.fetch_add(units, std::memory_order_relaxed);
    }
    return !exhausted();
  }

  /// Checks deadline and cancellation (reads the clock; amortize calls).
  /// Returns true while the budget still holds.
  bool poll() {
    if (exhausted()) return false;
    if (cancel_ && cancel_->cancelled()) {
      trip(Truncation::kCancelled);
      return false;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      trip(Truncation::kDeadline);
      return false;
    }
    return true;
  }

  /// Deadline introspection, for waiters that block on something other
  /// than pipeline work (e.g. a coalesced solve waiting on its leader).
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Cheap (no clock read): true once any limit has tripped.
  bool exhausted() const {
    return reason_.load(std::memory_order_relaxed) !=
           static_cast<std::uint8_t>(Truncation::kNone);
  }
  Truncation reason() const {
    return static_cast<Truncation>(reason_.load(std::memory_order_relaxed));
  }
  std::uint64_t work_used() const {
    return work_used_.load(std::memory_order_relaxed);
  }

  /// Records a stage-local limit (term/node budgets) so callers see one
  /// uniform truncation reason. First trip wins.
  void trip(Truncation t) {
    std::uint8_t expected = static_cast<std::uint8_t>(Truncation::kNone);
    reason_.compare_exchange_strong(expected, static_cast<std::uint8_t>(t),
                                    std::memory_order_relaxed);
  }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t work_limit_ = 0;
  const CancelToken* cancel_ = nullptr;
  std::atomic<std::uint64_t> work_used_{0};
  std::atomic<std::uint8_t> reason_{
      static_cast<std::uint8_t>(Truncation::kNone)};
};

/// Observability record for one pipeline stage. Stages form a tree rooted
/// at the solve; parallel stages pre-create one child per task and let each
/// worker fill only its own slot, so no locking is needed.
struct StageStats {
  std::string name;
  double elapsed_seconds = 0;
  /// Work units consumed (stage-specific scale; bitset word operations for
  /// the prime-generation stage, cost evaluations for the heuristics, ...).
  std::uint64_t work = 0;
  /// Stage-specific item count (SOP terms, search nodes, covering rows...).
  std::uint64_t items = 0;
  Truncation truncation = Truncation::kNone;
  /// Deque, not vector: add_child must hand out pointers that stay valid
  /// while later siblings are appended (StageScope holds its node across
  /// nested stages).
  std::deque<StageStats> children;

  StageStats() = default;
  explicit StageStats(std::string stage_name) : name(std::move(stage_name)) {}

  /// Appends a child stage and returns it. The pointer remains valid for
  /// the parent's lifetime (children are deque-backed; growth never moves
  /// existing nodes).
  StageStats* add_child(const std::string& child_name);

  /// Depth-first search by stage name; nullptr when absent.
  const StageStats* find(const std::string& stage_name) const;

  /// {"name":...,"elapsed_s":...,"work":...,"items":...,"truncation":...,
  ///  "children":[...]}
  std::string to_json() const;
};

/// The execution context handed down the pipeline. All members are borrowed
/// and optional: a default-constructed context means "unlimited budget, no
/// stats, sequential" and keeps every legacy entry point working unchanged.
struct ExecContext {
  Budget* budget = nullptr;
  StageStats* stats = nullptr;
  /// Worker threads for the parallel fan-out paths; <= 1 means sequential.
  int num_threads = 1;
  /// Span sink for the tracing subsystem (src/obs/trace.h); null disables
  /// span emission at the cost of one branch per stage.
  TraceSink* tracer = nullptr;
  /// Counters registry (src/obs/counters.h); null disables counters.
  MetricsRegistry* metrics = nullptr;

  bool exhausted() const { return budget && budget->exhausted(); }
  /// True while within budget; polls deadline/cancellation when present.
  bool poll() const { return !budget || budget->poll(); }
  /// True while within budget; charges `units` of work when present.
  bool charge(std::uint64_t units) const {
    return !budget || budget->charge(units);
  }
  Truncation reason() const {
    return budget ? budget->reason() : Truncation::kNone;
  }
};

/// RAII stage frame: creates a child stats node under the parent context's
/// stats (when any), times the stage, and exposes a derived context whose
/// stats pointer targets the child. Budget and thread count pass through.
class StageScope {
 public:
  StageScope(const ExecContext& parent, const char* stage_name);
  ~StageScope();

  /// Context for nested stages: same budget/threads, stats -> this stage.
  const ExecContext& ctx() const { return ctx_; }
  /// This stage's stats node; nullptr when the parent records no stats.
  StageStats* stats() { return ctx_.stats; }

  void add_work(std::uint64_t units) {
    if (ctx_.stats) ctx_.stats->work += units;
  }
  void add_items(std::uint64_t n) {
    if (ctx_.stats) ctx_.stats->items += n;
  }
  void set_truncation(Truncation t) {
    if (ctx_.stats) ctx_.stats->truncation = t;
  }

 private:
  ExecContext ctx_;
  const char* name_;
  Budget::Clock::time_point start_;
};

}  // namespace encodesat
