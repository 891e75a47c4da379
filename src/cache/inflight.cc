#include "cache/inflight.h"

namespace encodesat {

bool InFlightTable::Slot::wait(bool has_deadline,
                               std::chrono::steady_clock::time_point deadline,
                               SolveOutcome* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (has_deadline) {
    if (!cv_.wait_until(lock, deadline, [&] { return done_; })) return false;
  } else {
    cv_.wait(lock, [&] { return done_; });
  }
  if (!has_value_) return false;
  if (out) *out = value_;
  return true;
}

bool InFlightTable::Slot::abandoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_ && !has_value_;
}

InFlightTable::Join InFlightTable::join(SolveCache* cache,
                                        const std::string& key,
                                        SolveOutcome* hit,
                                        std::shared_ptr<Slot>* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    ++coalesced_;
    if (slot) *slot = it->second;
    return Join::kFollower;
  }
  // The cache lookup happens under the table mutex so the miss and the
  // leader registration are one atomic step: a duplicate arriving next
  // either sees the slot (follower) or, after publish, the cache entry
  // (hit) — never a second miss for the same burst.
  if (cache != nullptr && cache->lookup(key, hit)) return Join::kHit;
  ++leaders_;
  auto fresh = std::make_shared<Slot>();
  slots_.emplace(key, fresh);
  if (slot) *slot = std::move(fresh);
  return Join::kLeader;
}

void InFlightTable::publish(SolveCache* cache, const std::string& key,
                            const std::shared_ptr<Slot>& slot,
                            const SolveOutcome& value) {
  if (cache != nullptr) cache->insert(key, value);
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(slot->mu_);
    slot->value_ = value;
    slot->has_value_ = true;
    slot->done_ = true;
  }
  slot->cv_.notify_all();
}

void InFlightTable::abandon(const std::string& key,
                            const std::shared_ptr<Slot>& slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(key);
    ++abandoned_;
  }
  {
    std::lock_guard<std::mutex> lock(slot->mu_);
    slot->done_ = true;
  }
  slot->cv_.notify_all();
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
