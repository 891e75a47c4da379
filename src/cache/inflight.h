// Single-flight table for concurrent duplicate solves, and the one path
// every cached solve takes.
//
// When many clients ask for the same instance at once (the service broker's
// bread and butter — identical constraint sets recur under symbol renaming,
// so they share one canonical cache key), running the pipeline once per
// request wastes every core but the first's. resolve() closes that window:
// the first caller to miss the SolveCache for a key registers an in-flight
// slot and becomes the **leader**; every concurrent duplicate that arrives
// before the leader finishes becomes a **follower** and waits on the slot
// instead of solving. The leader's value is in canonical symbol space,
// exactly the payload the cache stores; each caller maps the canonical
// codes back through its *own* symbol permutation, so a coalesced response
// is bit-identical to the response a fresh solo solve of that request
// would have produced.
//
// Atomicity: the table and the cache are checked under the table mutex, so
// a key is in exactly one of three states per caller — cache hit, leader,
// or follower. At the metric level every call lands in exactly one bucket:
// `cache.hits + cache.misses + cache.coalesced + cache.wait_expired` sums
// to the call count (a follower whose leader gave up runs `solve` itself
// and counts as a miss; one whose own deadline expired mid-wait counts as
// wait_expired) — the accounting invariant tests/inflight_test.cc pins.
//
// Truncation: only an untruncated result is inserted into the cache or
// handed to followers. A leader whose `solve` threw, or whose own budget
// truncated the result, releases its followers empty-handed and they solve
// under their *own* budgets. (Deadlines are excluded from the key, so a
// follower may hold a larger budget than its leader; handing it the
// leader's truncated result would break the bit-identical-to-a-solo-solve
// contract.) A follower with a deadline stops waiting when it passes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/solve_cache.h"
#include "util/exec.h"

namespace encodesat {

/// Point-in-time accounting of the table.
struct CoalesceStats {
  std::uint64_t leaders = 0;    ///< calls that became the leader
  std::uint64_t coalesced = 0;  ///< calls that attached to a leader
  std::uint64_t abandoned = 0;  ///< leaders that released followers empty
  std::uint64_t in_flight = 0;  ///< keys currently being solved
};

class InFlightTable {
 public:
  /// How resolve() filled `*out`.
  enum class Resolution {
    kHit,        ///< copied from the cache
    kCoalesced,  ///< copied from a concurrent leader's result
    kSolved,     ///< `solve` ran: the caller led, or its leader gave up
    kExpired,    ///< the caller's deadline passed while it waited: ctx's
                 ///< budget tripped kDeadline and `*out` is kTruncated
  };

  /// The whole protocol for one keyed solve: looks `key` up in the table
  /// and in `cache` (which may be null: then only leader and follower
  /// outcomes occur), waits as a follower until ctx's own deadline, runs
  /// `solve` under ctx when no value arrives, and inserts and hands over
  /// the result when it is untruncated. Records the "cache_lookup" and
  /// "coalesce_wait" stages under ctx and the `cache.hits`, `.misses`,
  /// `.coalesced`, `.wait_expired` and `.inserts` counters (outside the
  /// fingerprint: they depend on cache history). An exception from
  /// `solve` releases the followers and propagates. A `solve` lambda
  /// capturing two references is stored inline by libstdc++'s
  /// std::function, so passing one allocates nothing on a hit.
  Resolution resolve(
      SolveCache* cache, const std::string& key, const ExecContext& ctx,
      const std::function<SolveOutcome(const ExecContext&)>& solve,
      SolveOutcome* out);

  CoalesceStats stats() const;

 private:
  struct Slot;
  /// Removes the leader's key and wakes its followers with `value`, or
  /// with nothing when it is null.
  void release(const std::string& key, Slot& slot, const SolveOutcome* value);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
  std::uint64_t leaders_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace encodesat
