// The unified front door of the library: one facade over the paper's whole
// flow (P-1 feasibility, P-2 exact minimum-length encoding, the P-3
// bounded-length heuristic, the Section 8 extension pipeline), with one
// nested options surface instead of per-stage knobs.
//
//   Solver solver(parse_constraints(text));
//   if (!solver.feasible()) ...;
//   SolveOptions opts;
//   opts.exec.timeout_seconds = 5;
//   opts.exec.threads = 4;
//   opts.cache.enabled = true;
//   SolveResult r = solver.encode(opts);
//   // r.status, r.encoding, r.stats.to_json(), ...
//
// encode() routes automatically: constraint sets with distance-2 or
// non-face constraints go through the binate-covering extension pipeline,
// everything else through the exact Fig. 7 pipeline.
//
// Options are grouped by concern (the per-module structs keep their names
// as the nested member types — see docs/API.md for the CLI flag → field
// mapping table):
//   opts.exec        budget, threads, cancellation, tracer, metrics
//   opts.exact       exact-pipeline knobs (ExactEncodeOptions)
//   opts.extensions  extension-pipeline knobs (ExtensionEncodeOptions)
//   opts.bounded     encode_bounded knobs (BoundedEncodeOptions)
//   opts.cache       solve cache (SolveOptions::Cache)
//
// Caching semantics: with a cache or a single-flight table, encode()
// canonicalizes the instance (src/cache/canonical.h), keys it with the
// options fingerprint and makes one InFlightTable::resolve call
// (src/cache/inflight.h) — on the request's table, or on one of its own —
// which serves a hit, attaches to a concurrent solve of the same key, or
// solves the *canonical* set; the codes are then mapped back through the
// symbol permutation. A warm hit therefore returns a bit-identical
// SolveResult to the cold miss that populated the entry — the solver's
// tie-breaking runs on the same canonical instance either way. With
// neither, encode() never canonicalizes. Two caveats: `uncovered` indices
// stay in canonical space on keyed paths (SolveOutcome, core/status.h),
// and only untruncated results are stored or handed to followers.
//
// Determinism: for fixed options, the encoding produced is identical for
// every `exec.threads` value and for repeated runs — work/term/node budgets
// trip at reproducible points. Only wall-clock deadlines and cancellation
// make truncation timing (never validity) run-dependent. Cache hit/miss
// counters depend on cache *history*, so they are registered outside the
// metrics fingerprint (obs/counters.h).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/solve_cache.h"
#include "core/bounded.h"
#include "core/constraints.h"
#include "core/encoder.h"
#include "core/encoding.h"
#include "core/extensions.h"
#include "core/status.h"
#include "util/exec.h"

namespace encodesat {

class InFlightTable;  // cache/inflight.h

struct SolveOptions {
  /// Which pipeline encode() runs. kAuto picks the extension pipeline when
  /// distance-2 or non-face constraints are present, the exact Fig. 7
  /// pipeline otherwise; the explicit values force one.
  enum class Pipeline { kAuto, kExact, kExtensions };
  Pipeline pipeline = Pipeline::kAuto;

  /// Execution budget and plumbing, shared by every pipeline.
  struct Exec {
    /// Wall-clock budget for the whole solve; 0 means unlimited.
    double timeout_seconds = 0;
    /// Total work budget in bitset word operations; 0 means unlimited.
    /// This is the deterministic alternative to a deadline. Stage-local
    /// budgets (exact.prime_options.max_terms, kPrimeMaxWork, cover node
    /// budgets) still apply.
    std::uint64_t max_work = 0;
    /// Worker threads for the parallel fan-out paths; 1 = sequential
    /// (reference path), 0 = all hardware threads.
    int threads = 1;
    /// Optional cooperative cancellation, shared across threads and
    /// solves. Borrowed; must outlive the call.
    CancelToken* cancel = nullptr;
    /// Optional span sink (obs/trace.h Tracer): every pipeline stage emits
    /// a begin/end span. Borrowed; must outlive the call.
    TraceSink* tracer = nullptr;
    /// Optional counter registry (obs/counters.h): stages report work
    /// counters whose fingerprint is thread-count invariant. Borrowed.
    MetricsRegistry* metrics = nullptr;
  };
  Exec exec;

  /// Exact-pipeline knobs (prime generation + unate covering).
  ExactEncodeOptions exact;
  /// Extension-pipeline knobs (prime generation + binate covering).
  ExtensionEncodeOptions extensions;
  /// Bounded-length heuristic knobs (Solver::encode_bounded only).
  BoundedEncodeOptions bounded;

  /// Solve cache (src/cache/solve_cache.h). Enable with `enabled = true`
  /// (the Solver lazily creates and owns a cache with the default
  /// CacheConfig, shared by its own subsequent solves) or point `store` at an external SolveCache to share
  /// entries across Solver instances and persist them (`--cache-load` /
  /// `--cache-save`); a non-null `store` implies enabled.
  struct Cache {
    bool enabled = false;
    SolveCache* store = nullptr;
    /// Leaf budget for the canonicalization search; past it the canonical
    /// key is inexact (still sound, may miss renamed duplicates).
    std::size_t max_canon_leaves = 4096;
    /// Optional single-flight table (cache/inflight.h): concurrent solves
    /// whose canonical key + options fingerprint match coalesce onto one
    /// pipeline run; the others attach and receive the identical canonical
    /// result permuted back through their own symbol maps. It only picks
    /// the table a keyed solve resolves on (a cached solve without one
    /// uses a table of its own), so coalescing works with or without a
    /// cache attached (without one, only the concurrent window is closed).
    /// Borrowed; must outlive the call.
    InFlightTable* single_flight = nullptr;
  };
  Cache cache;
};

/// One solve's answer: the deterministic SolveOutcome payload (status,
/// encoding, minimal, truncation, uncovered, the counters and the stats
/// fingerprint — core/status.h), plus the fields that describe this run
/// only. On a cache hit or a coalesced attach the payload replays the solve
/// that produced it, with codes mapped to this instance's symbol order;
/// `uncovered` stays in canonical space on cached paths.
struct SolveResult : SolveOutcome {
  /// Uniform truncation shape (see docs/API.md): `truncated` always mirrors
  /// `truncation != Truncation::kNone`. A truncated result can still be
  /// encoded — status kEncoded with `truncated` means only the optimality
  /// proof was cut short.
  bool truncated = false;
  /// True when this result was served from the solve cache.
  bool from_cache = false;
  /// True when this result attached to a concurrent in-flight solve of the
  /// same canonical instance (single-flight coalescing; implies
  /// `from_cache` semantics: the payload replays the leader's solve).
  bool coalesced = false;

  /// Per-stage observability tree rooted at "solve"; serialize with
  /// stats.to_json(). Populated on every path; a cache hit records a
  /// "cache_hit" child instead of the pipeline stages (stats describe the
  /// work actually done, which on a hit is a lookup).
  StageStats stats;
};

class Solver {
 public:
  explicit Solver(ConstraintSet cs) : cs_(std::move(cs)) {}

  const ConstraintSet& constraints() const { return cs_; }

  /// P-1: polynomial-time feasibility of the face/output constraints.
  bool feasible() const { return feasibility().feasible; }
  /// P-1 with diagnostics (the uncovered initial dichotomies).
  FeasibilityResult feasibility() const;

  /// Minimum-length encoding under all constraints, routed to the exact or
  /// extension pipeline as needed.
  SolveResult encode(const SolveOptions& opts = {}) const;

  /// P-3: heuristic encoding in exactly `code_length` bits under
  /// opts.bounded, with opts.exec supplying the budget/tracer/metrics
  /// plumbing (never cached — the heuristic is cost-guided, not
  /// canonical-form-stable). When `stats` is non-null it is reset to a
  /// "solve"-rooted stage tree for the run (the heuristic's result struct
  /// carries no stats of its own).
  BoundedEncodeResult encode_bounded(int code_length,
                                     const SolveOptions& opts = {},
                                     StageStats* stats = nullptr) const;

 private:
  /// Resolves the effective cache for a call: the external store when set,
  /// else the lazily-created owned cache (first call's size config wins),
  /// else nullptr.
  SolveCache* cache_for(const SolveOptions& opts) const;

  ConstraintSet cs_;
  /// Lazily created when opts.cache.enabled is set without an external
  /// store; shared by subsequent encode() calls on this Solver.
  mutable std::unique_ptr<SolveCache> owned_cache_;
  mutable std::mutex cache_mu_;
};

/// One solve, as submitted through the unified request entry point — the
/// single public solve surface shared by the CLI subcommands, the fuzz
/// driver and the `encodesat serve` broker (src/service/broker.h). The
/// request owns its constraints; the service layer parses the wire payload
/// into one of these and everything downstream is transport-agnostic.
struct SolveRequest {
  /// Client-chosen identifier, echoed back verbatim on the response (and
  /// on the NDJSON wire). Not interpreted.
  std::string id;
  ConstraintSet constraints;
  /// The deadline is options.exec.timeout_seconds, measured from the
  /// moment solve() starts (the service broker fixes it at submission and
  /// passes the remaining time at dequeue, so queue wait counts against it).
  SolveOptions options;
};

/// The uniform answer: a StatusCode plus the underlying SolveResult.
/// `result` is meaningful for kOk / kInfeasible / kTimeout / kCanceled
/// (on the truncation statuses it carries the partial stats); for
/// kParseError the protocol layer fills `parse_error` instead, and for
/// kOverloaded / kInternal `detail` explains.
struct SolveResponse {
  std::string id;
  StatusCode status = StatusCode::kInternal;
  SolveResult result;
  ParseError parse_error;
  std::string detail;

  bool ok() const { return status == StatusCode::kOk; }
};

/// Maps a finished SolveResult onto the unified status surface: encoded →
/// kOk (even when only the optimality proof was truncated), infeasible →
/// kInfeasible, truncated-without-encoding → kCanceled for cooperative
/// cancellation, kTimeout for every expired budget (deadline, work, term,
/// node — from the requester's seat they are all "ran out of budget").
StatusCode status_from_result(const SolveResult& r);

/// The unified entry point: solves `req.constraints` under `req.options`
/// and folds the outcome into a SolveResponse. Exceptions become
/// kInternal with the message in `detail` — among them a symbol count past
/// a pipeline's limit and a damaged cache entry. Equivalent to
/// Solver(req.constraints).encode(...) plus the status mapping, without
/// copying the constraints (a request with `cache.enabled` and no store
/// gets a cache for this call) — the CLI, fuzz driver and service broker
/// all funnel through here.
SolveResponse solve(const SolveRequest& req);

/// Fingerprint of every option that changes what a solve produces
/// (pipeline, prime/cover budgets, exec.max_work) — part of the cache key,
/// so runs under different budgets never share entries. Thread count,
/// deadline and cancellation are deliberately excluded: threads never
/// change the result, and only untruncated results are ever cached *or*
/// handed to coalesced followers (a truncated leader's followers solve
/// under their own budgets),
/// so deadline differences cannot leak a budget-truncated result into a
/// request whose own budget was ample.
std::uint64_t solve_options_fingerprint(const SolveOptions& opts);

}  // namespace encodesat
