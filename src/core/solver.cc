#include "core/solver.h"

#include <cstdio>
#include <optional>
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

void configure_budget(Budget& budget, const SolveOptions& opts) {
  if (opts.exec.timeout_seconds > 0)
    budget.set_deadline_after(opts.exec.timeout_seconds);
  if (opts.exec.max_work > 0) budget.set_work_limit(opts.exec.max_work);
  if (opts.exec.cancel) budget.set_cancel_token(opts.exec.cancel);
}

// The facade body: canonicalization and one InFlightTable::resolve call
// for a keyed solve (or the pipeline alone), then the root stats and
// metrics bookkeeping.
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

  // A cached solve without the request's table leads on a table of its
  // own; with neither, the solve is not keyed.
  InFlightTable* table = opts.cache.single_flight;
  std::optional<InFlightTable> own;
  if (table == nullptr && cache != nullptr) table = &own.emplace();
  if (table == nullptr) {
    payload = run_pipeline(cs, opts, ctx);
  } else {
    // Keyed solves run on the canonical instance and map the codes back,
    // so a warm hit replays the cold miss bit for bit under any renaming.
    Canonicalization cz;
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
    const InFlightTable::Resolution how = table->resolve(
        cache, cz.canon.key + fp, ctx,
        [&set = cz.canon.set, &opts](const ExecContext& c) {
          return run_pipeline(set, opts, c);
        },
        &payload);
    if (how == InFlightTable::Resolution::kHit ||
        how == InFlightTable::Resolution::kCoalesced) {
      out.from_cache = true;
      out.coalesced = how == InFlightTable::Resolution::kCoalesced;
      out.stats.add_child(out.coalesced ? "coalesced" : "cache_hit");
    }
    to_caller_order(payload, cz.perm);
  }

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
  s += ";ew" + std::to_string(kPrimeMaxWork);
  s += ";en" + std::to_string(opts.exact.cover_options.max_nodes);
  s += ";xt" + std::to_string(opts.extensions.prime_options.max_terms);
  s += ";xw" + std::to_string(kPrimeMaxWork);
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
    // A request that enables the cache without a store gets one for this
    // call, as a Solver of its own would.
    std::optional<SolveCache> own;
    SolveCache* cache = req.options.cache.store;
    if (cache == nullptr && req.options.cache.enabled) cache = &own.emplace();
    resp.result = run_solve(req.constraints, req.options, cache);
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
