// Single-flight table for concurrent duplicate solves.
//
// When many clients ask for the same instance at once (the service broker's
// bread and butter — identical constraint sets recur under symbol renaming,
// so they share one canonical cache key), running the pipeline once per
// request wastes every core but the first's. The InFlightTable closes that
// window: the first request to miss the SolveCache for a key registers an
// in-flight *slot* and becomes the **leader**; every concurrent duplicate
// that arrives before the leader publishes becomes a **follower** and
// blocks on the slot instead of solving. The leader publishes the solved
// value (in canonical symbol space, exactly the payload the cache stores),
// inserts it into the cache, and wakes the followers — each of which maps
// the canonical codes back through its *own* symbol permutation, so a
// coalesced response is bit-identical to the response a fresh solo solve
// of that request would have produced.
//
// Atomicity: join() checks the in-flight table and the cache under the
// table mutex, so a key is in exactly one of three states per caller —
// cache hit, leader, or follower. At the metric level every solve lands
// in exactly one bucket: `cache.hits + cache.misses + cache.coalesced +
// cache.wait_expired` sums to the solve count (a follower whose leader
// abandoned re-runs the pipeline and counts as a miss; one whose own
// deadline expired mid-wait counts as wait_expired) — the accounting
// invariant the service tests pin.
//
// Failure: a leader that cannot publish — the pipeline threw, or its own
// budget truncated the result — must call abandon(), which wakes followers
// empty-handed; they fall back to solving locally under their *own*
// budgets. (Deadlines are excluded from the coalescing key, so a follower
// may hold a larger budget than its leader; handing it the leader's
// truncated result would break the bit-identical-to-a-solo-solve
// contract.) Followers with a deadline stop waiting when it passes and
// report deadline truncation.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/solve_cache.h"

namespace encodesat {

/// Point-in-time accounting of the table (atomics, process-wide).
struct CoalesceStats {
  std::uint64_t leaders = 0;    ///< join() calls that became the leader
  std::uint64_t coalesced = 0;  ///< join() calls that attached to a leader
  std::uint64_t abandoned = 0;  ///< leader failures (followers fell back)
  std::uint64_t in_flight = 0;  ///< keys currently being solved
};

class InFlightTable {
 public:
  /// One in-flight solve. Held by shared_ptr so followers outlive the
  /// table entry (the key is removed at publish time, waiters drain after).
  class Slot {
   public:
    /// Blocks until the leader publishes or `deadline` passes (when
    /// `has_deadline`). Returns true and fills `*out` when a value
    /// arrived; false on deadline expiry or an abandoned leader (check
    /// `abandoned()` to tell the two apart).
    bool wait(bool has_deadline,
              std::chrono::steady_clock::time_point deadline,
              SolveOutcome* out);
    bool abandoned() const;

   private:
    friend class InFlightTable;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    bool has_value_ = false;
    SolveOutcome value_;
  };

  enum class Join {
    kHit,       ///< `*hit` filled from the cache; no slot involved
    kLeader,    ///< caller must solve, then publish() or abandon()
    kFollower,  ///< caller should Slot::wait()
  };

  /// Resolves `key` atomically against the in-flight table and `cache`
  /// (which may be null: then only leader/follower outcomes occur). On
  /// kHit fills `*hit`; on kLeader/kFollower fills `*slot`.
  Join join(SolveCache* cache, const std::string& key, SolveOutcome* hit,
            std::shared_ptr<Slot>* slot);

  /// Leader hand-off for an untruncated result: inserts `value` into
  /// `cache` first (when non-null) so late arrivals hit, then removes the
  /// key and wakes the slot's followers. A kLeader join must be resolved
  /// by exactly one publish() or abandon() call.
  void publish(SolveCache* cache, const std::string& key,
               const std::shared_ptr<Slot>& slot, const SolveOutcome& value);

  /// Leader failure path (pipeline threw, or the result was truncated and
  /// must not be handed to followers): removes the key and wakes followers
  /// with no value (they solve locally under their own budgets).
  void abandon(const std::string& key, const std::shared_ptr<Slot>& slot);

  CoalesceStats stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
  std::uint64_t leaders_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace encodesat
