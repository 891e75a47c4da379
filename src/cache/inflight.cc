#include "cache/inflight.h"

#include <condition_variable>

#include "obs/counters.h"

namespace encodesat {

namespace {

// Hit/miss/insert counts depend on cache history (what earlier solves
// stored), not on this solve's inputs, so they live outside the
// thread-count-invariant fingerprint (obs/counters.h contract).
void count(const ExecContext& ctx, const char* name, std::uint64_t v) {
  if (ctx.metrics) ctx.metrics->counter(name, /*in_fingerprint=*/false)->add(v);
}

}  // namespace

/// One in-flight solve. Held by shared_ptr so followers outlive the table
/// entry (the leader erases the key when it releases, waiters drain after).
struct InFlightTable::Slot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool has_value = false;
  SolveOutcome value;
};

InFlightTable::Resolution InFlightTable::resolve(
    SolveCache* cache, const std::string& key, const ExecContext& ctx,
    const std::function<SolveOutcome(const ExecContext&)>& solve,
    SolveOutcome* out) {
  std::shared_ptr<Slot> slot;
  bool leads = false;
  {
    StageScope scope(ctx, "cache_lookup");
    std::lock_guard<std::mutex> lock(mu_);
    // The cache lookup happens under the table mutex so the miss and the
    // leader registration are one atomic step: a duplicate arriving next
    // either sees the slot (follower) or, after the leader inserted, the
    // cache entry (hit) — never a second miss for the same burst.
    const auto it = slots_.find(key);
    if (it != slots_.end()) {
      ++coalesced_;
      slot = it->second;
    } else if (cache == nullptr || !cache->lookup(key, out)) {
      ++leaders_;
      slot = std::make_shared<Slot>();
      slots_.emplace(key, slot);
      leads = true;
    }
  }

  Resolution r = leads ? Resolution::kSolved : Resolution::kHit;
  if (slot != nullptr && !leads) {
    StageScope scope(ctx, "coalesce_wait");
    std::unique_lock<std::mutex> lock(slot->mu);
    const auto done = [&] { return slot->done; };
    bool arrived = true;
    if (ctx.budget != nullptr && ctx.budget->has_deadline())
      arrived = slot->cv.wait_until(lock, ctx.budget->deadline(), done);
    else
      slot->cv.wait(lock, done);
    if (!arrived) {
      ctx.budget->trip(Truncation::kDeadline);
      out->status = SolveOutcome::Status::kTruncated;
      r = Resolution::kExpired;
    } else if (slot->has_value) {
      *out = slot->value;
      r = Resolution::kCoalesced;
    } else {
      r = Resolution::kSolved;  // the leader gave up: solve under our budget
    }
  }
  count(ctx, "cache.hits", r == Resolution::kHit ? 1 : 0);
  count(ctx, "cache.misses", r == Resolution::kSolved ? 1 : 0);
  count(ctx, "cache.coalesced", r == Resolution::kCoalesced ? 1 : 0);
  count(ctx, "cache.wait_expired", r == Resolution::kExpired ? 1 : 0);
  if (r != Resolution::kSolved) return r;

  try {
    *out = solve(ctx);
  } catch (...) {
    if (leads) release(key, *slot, nullptr);
    throw;
  }
  // A truncated result is transient (a bigger budget would do better), so
  // it is neither stored nor handed to followers, who may hold bigger
  // budgets.
  const bool keep = out->truncation == Truncation::kNone &&
                    out->status != SolveOutcome::Status::kTruncated;
  if (keep && cache != nullptr) {
    cache->insert(key, *out);
    count(ctx, "cache.inserts", 1);
  }
  if (leads) release(key, *slot, keep ? out : nullptr);
  return r;
}

void InFlightTable::release(const std::string& key, Slot& slot,
                            const SolveOutcome* value) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(key);
    if (value == nullptr) ++abandoned_;
  }
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (value != nullptr) {
      slot.value = *value;
      slot.has_value = true;
    }
    slot.done = true;
  }
  slot.cv.notify_all();
}

CoalesceStats InFlightTable::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CoalesceStats s;
  s.leaders = leaders_;
  s.coalesced = coalesced_;
  s.abandoned = abandoned_;
  s.in_flight = slots_.size();
  return s;
}

}  // namespace encodesat
