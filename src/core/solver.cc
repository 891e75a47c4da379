#include "core/solver.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/canonical.h"
#include "cache/inflight.h"
#include "core/pipelines.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

void stats_key(const StageStats& s, std::string& out) {
  out += s.name;
  out += ':';
  out += std::to_string(s.work);
  out += ':';
  out += std::to_string(s.items);
  out += '{';
  for (const StageStats& c : s.children) stats_key(c, out);
  out += '}';
}

/// The routing call: runs the pipeline `opts` selects (kAuto takes the
/// extension pipeline when distance-2 or non-face constraints are present)
/// and stamps the payload with the fingerprint of the stats tree so far.
SolveOutcome run_pipeline(const ConstraintSet& cs, const SolveOptions& opts,
                          const ExecContext& ctx) {
  const bool extended =
      opts.pipeline == SolveOptions::Pipeline::kExtensions ||
      (opts.pipeline == SolveOptions::Pipeline::kAuto &&
       cs.has_extension_constraints());
  SolveOutcome r = extended ? encode_with_extensions(cs, opts.extensions, ctx)
                            : exact_encode(cs, opts.exact, ctx);
  std::string key;
  stats_key(*ctx.stats, key);
  r.stats_fingerprint = fnv1a64(key);
  return r;
}

/// Maps a canonical-space payload's codes back to the caller's symbol
/// order. A payload without codes (infeasible, truncated) passes through;
/// one whose code count is not the symbol count — a damaged cache entry —
/// is refused rather than served unpermuted.
void to_caller_order(SolveOutcome& r, const SymbolPermutation& perm) {
  std::vector<std::uint64_t>& codes = r.encoding.codes;
  const std::size_t n = perm.to_canonical.size();
  if (codes.empty() && !r.encoded()) return;
  if (codes.size() != n)
    throw std::runtime_error("cache entry holds " +
                             std::to_string(codes.size()) + " codes for " +
                             std::to_string(n) + " symbols");
  std::vector<std::uint64_t> mapped(n);
  for (std::size_t i = 0; i < n; ++i) mapped[i] = codes[perm.to_canonical[i]];
  codes = std::move(mapped);
}

// Hit/miss/insert counts depend on cache history (what earlier solves
// stored), not on this solve's inputs, so they live outside the
// thread-count-invariant fingerprint (obs/counters.h contract).
void cache_metric(const ExecContext& ctx, const char* name, std::uint64_t v) {
  if (ctx.metrics) ctx.metrics->counter(name, /*in_fingerprint=*/false)->add(v);
}

void configure_budget(Budget& budget, const SolveOptions& opts) {
  if (opts.exec.timeout_seconds > 0)
    budget.set_deadline_after(opts.exec.timeout_seconds);
  if (opts.exec.max_work > 0) budget.set_work_limit(opts.exec.max_work);
  if (opts.exec.cancel) budget.set_cancel_token(opts.exec.cancel);
}

// The facade body: cache lookup or coalescing, the pipeline, and the root
// stats and metrics bookkeeping.
SolveResult run_solve(const ConstraintSet& cs, const SolveOptions& opts,
                      SolveCache* cache) {
  SolveResult out;
  // The deterministic part: what the cache stores and followers receive.
  SolveOutcome& payload = out;
  out.stats = StageStats("solve");
  Budget budget;
  configure_budget(budget, opts);
  const Budget::Clock::time_point start = Budget::Clock::now();
  const ExecContext ctx{&budget, &out.stats,
                        resolve_threads(opts.exec.threads), opts.exec.tracer,
                        opts.exec.metrics};
  // Root span matching the "solve" stats root; stage scopes below add the
  // child spans.
  TRACE_SCOPE(ctx, "solve");

  InFlightTable* sf = opts.cache.single_flight;
  // Either facility needs the canonical key: single-flight coalescing
  // works even with no cache attached (the in-flight table alone closes
  // the concurrent-duplicate window; join() supports cache == nullptr).
  const bool keyed = cache != nullptr || sf != nullptr;
  Canonicalization cz;
  std::string key;
  // Hits and coalesced attaches copy the stored payload straight into
  // `out`; the permutation at the end is the only other copy.
  bool have_entry = false;
  bool coalesced = false;
  bool wait_expired = false;
  std::shared_ptr<InFlightTable::Slot> slot;
  auto join = InFlightTable::Join::kLeader;
  if (keyed) {
    {
      // StageScope emits the trace span and stats child in one.
      StageScope scope(ctx, "canonicalize");
      cz = canonicalize(cs, opts.cache.max_canon_leaves);
      scope.add_items(1);
    }
    char fp[20];
    std::snprintf(fp, sizeof fp, "#%016llx",
                  static_cast<unsigned long long>(
                      solve_options_fingerprint(opts)));
    key = cz.canon.key + fp;
    {
      StageScope scope(ctx, "cache_lookup");
      if (sf != nullptr) {
        join = sf->join(cache, key, &payload, &slot);
        have_entry = join == InFlightTable::Join::kHit;
      } else {
        have_entry = cache->lookup(key, &payload);
        join = have_entry ? InFlightTable::Join::kHit
                          : InFlightTable::Join::kLeader;
      }
    }
    if (join == InFlightTable::Join::kFollower) {
      // Another thread is solving this exact canonical instance under the
      // same options fingerprint: attach instead of duplicating the work.
      // An abandoned leader (exception, or a leader whose own budget
      // truncated the result) drops us to the local-solve path; a deadline
      // expiring mid-wait is an ordinary deadline truncation.
      StageScope scope(ctx, "coalesce_wait");
      if (slot->wait(budget.has_deadline(), budget.deadline(), &payload)) {
        have_entry = true;
        coalesced = true;
      } else if (!slot->abandoned()) {
        budget.trip(Truncation::kDeadline);
        wait_expired = true;
      }
    }
    // Accounting: every solve lands in exactly one bucket — cache.hits +
    // cache.misses + cache.coalesced + cache.wait_expired sums to the
    // solve count under any interleaving. A follower whose leader
    // abandoned runs the pipeline itself, so it counts as a miss; a
    // follower whose own deadline expired mid-wait ran nothing and
    // received nothing, so it gets its own bucket.
    const bool fallback = join == InFlightTable::Join::kFollower &&
                          !have_entry && !wait_expired;
    cache_metric(ctx, "cache.hits",
                 have_entry && !coalesced ? 1 : 0);
    cache_metric(ctx, "cache.misses",
                 join == InFlightTable::Join::kLeader || fallback ? 1 : 0);
    cache_metric(ctx, "cache.coalesced", coalesced ? 1 : 0);
    cache_metric(ctx, "cache.wait_expired", wait_expired ? 1 : 0);
  }

  if (have_entry) {
    out.from_cache = true;
    out.coalesced = coalesced;
    out.stats.add_child(coalesced ? "coalesced" : "cache_hit");
  } else if (wait_expired) {
    out.status = SolveOutcome::Status::kTruncated;
  } else {
    const bool leads = sf != nullptr && join == InFlightTable::Join::kLeader;
    try {
      // Keyed solves run on the canonical instance and map the codes back,
      // so a warm hit replays the cold miss bit for bit under any renaming.
      payload = run_pipeline(keyed ? cz.canon.set : cs, opts, ctx);
    } catch (...) {
      if (leads) sf->abandon(key, slot);
      throw;
    }
    // Store before permuting: entries live in canonical space. Truncated
    // results are transient (a bigger budget would do better) and are
    // neither cached nor published: a follower may hold a larger budget
    // than the leader it attached to (deadlines are excluded from the
    // coalescing key), and a coalesced response must be bit-identical to
    // a fresh solo solve of that request — so a truncated leader
    // abandons and its followers re-solve under their own budgets.
    const bool cacheable = out.truncation == Truncation::kNone &&
                           out.status != SolveOutcome::Status::kTruncated;
    if (leads) {
      if (cacheable) {
        sf->publish(cache, key, slot, payload);
        cache_metric(ctx, "cache.inserts", 1);
      } else {
        sf->abandon(key, slot);
      }
    } else if (cacheable && cache != nullptr) {
      cache->insert(key, payload);
      cache_metric(ctx, "cache.inserts", 1);
    }
  }
  if (keyed) to_caller_order(payload, cz.perm);

  if (out.status == SolveOutcome::Status::kTruncated &&
      out.truncation == Truncation::kNone)
    out.truncation = budget.reason();
  out.truncated = out.truncation != Truncation::kNone;
  metric_add(ctx, "solve.runs", 1);
  metric_add(ctx, "solve.work_units", budget.work_used());
  metric_add(ctx, "budget.truncations", out.truncated ? 1 : 0);
  out.stats.work = budget.work_used();
  out.stats.truncation = out.truncation;
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(Budget::Clock::now() - start).count();
  // Distribution observations. Work units are deterministic (fingerprint
  // histograms, checked threads-1-vs-N by the fuzzer's `histograms` rule);
  // per-stage durations are wall clock and stay outside the fingerprint.
  metric_observe(ctx, "solve.work", budget.work_used());
  for (const StageStats& stage : out.stats.children) {
    metric_observe(ctx, "solve.stage_work", stage.work);
    metric_observe(ctx, "solve.stage_us",
                   static_cast<std::uint64_t>(stage.elapsed_seconds * 1e6),
                   /*in_fingerprint=*/false);
  }
  return out;
}

}  // namespace

std::uint64_t solve_options_fingerprint(const SolveOptions& opts) {
  std::string s = "p" + std::to_string(static_cast<int>(opts.pipeline));
  s += ";w" + std::to_string(opts.exec.max_work);
  s += ";et" + std::to_string(opts.exact.prime_options.max_terms);
  s += ";ew" + std::to_string(opts.exact.prime_options.max_work);
  s += ";en" + std::to_string(opts.exact.cover_options.max_nodes);
  s += ";xt" + std::to_string(opts.extensions.prime_options.max_terms);
  s += ";xw" + std::to_string(opts.extensions.prime_options.max_work);
  s += ";xn" + std::to_string(opts.extensions.cover_options.max_nodes);
  return fnv1a64(s);
}

StatusCode status_from_result(const SolveResult& r) {
  switch (r.status) {
    case SolveResult::Status::kEncoded:
      return StatusCode::kOk;
    case SolveResult::Status::kInfeasible:
      return StatusCode::kInfeasible;
    case SolveResult::Status::kTruncated:
      return r.truncation == Truncation::kCancelled ? StatusCode::kCanceled
                                                    : StatusCode::kTimeout;
  }
  return StatusCode::kInternal;
}

SolveResponse solve(const SolveRequest& req) {
  SolveResponse resp;
  resp.id = req.id;
  try {
    const Solver solver(req.constraints);
    resp.result = solver.encode(req.options);
    resp.status = status_from_result(resp.result);
  } catch (const std::exception& e) {
    resp.status = StatusCode::kInternal;
    resp.detail = e.what();
  }
  return resp;
}

FeasibilityResult Solver::feasibility() const {
  return check_feasible(cs_, ExecContext{});
}

SolveCache* Solver::cache_for(const SolveOptions& opts) const {
  if (opts.cache.store != nullptr) return opts.cache.store;
  if (!opts.cache.enabled) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!owned_cache_)
    owned_cache_ = std::make_unique<SolveCache>(CacheConfig{});
  return owned_cache_.get();
}

SolveResult Solver::encode(const SolveOptions& opts) const {
  return run_solve(cs_, opts, cache_for(opts));
}

BoundedEncodeResult Solver::encode_bounded(int code_length,
                                           const SolveOptions& opts,
                                           StageStats* stats) const {
  Budget budget;
  configure_budget(budget, opts);
  if (stats) *stats = StageStats("solve");
  const Budget::Clock::time_point start = Budget::Clock::now();
  const ExecContext ctx{&budget, stats, resolve_threads(opts.exec.threads),
                        opts.exec.tracer, opts.exec.metrics};
  BoundedEncodeResult r = bounded_encode(cs_, code_length, opts.bounded, ctx);
  if (stats) {
    stats->work = budget.work_used();
    stats->truncation = r.truncation;
    stats->elapsed_seconds =
        std::chrono::duration<double>(Budget::Clock::now() - start).count();
  }
  return r;
}

}  // namespace encodesat
