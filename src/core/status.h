// Unified status codes and the solve payload for the public solve surface.
//
// Every way a solve request can conclude — in-process through the
// SolveRequest/SolveResponse entry point (core/solver.h) or over the
// service wire protocol (src/service/protocol.h) — maps onto this one
// enum, replacing the historical mix of bools, ParseError out-params and
// per-result status enums at the API boundary. The numeric values are
// part of no format; the *names* (status_code_name) are: they appear in
// the NDJSON `status` field of `encodesat-service-v1` responses and in
// CLI diagnostics, so they are lowercase, stable, and additive-only.
//
// SolveOutcome is the deterministic answer of one pipeline run: what the
// exact and extension pipelines and the Section 4 binate-table oracle
// return, what the solve cache (cache/solve_cache.h) stores and what the
// in-flight table (cache/inflight.h) hands to coalesced followers.
// SolveResult (core/solver.h) extends it with the per-run fields. It lives
// here, below core/solver.h, because the cache compiles underneath the
// solver.
#pragma once

#include <cstdint>
#include <vector>

#include "core/encoding.h"
#include "util/exec.h"

namespace encodesat {

enum class StatusCode : std::uint8_t {
  kOk = 0,       ///< solved; an encoding (or a proof of one) is attached
  kParseError,   ///< the constraint text did not parse (see ParseError)
  kInfeasible,   ///< the constraints cannot all be satisfied
  kTimeout,      ///< a deadline or work budget expired before an answer
  kOverloaded,   ///< admission control rejected the request (service only)
  kCanceled,     ///< cooperative cancellation / client went away
  kInternal,     ///< unexpected failure; `detail` carries the reason
};

/// Stable lowercase wire name: "ok", "parse_error", "infeasible",
/// "timeout", "overloaded", "canceled", "internal".
const char* status_code_name(StatusCode code);

/// Inverse of status_code_name; returns false for unknown names.
bool status_code_from_name(const char* name, StatusCode* out);

/// The deterministic payload of one solve: identical for every thread
/// count, and on a cache hit a replay of the solve that stored it (codes
/// permuted to the caller's symbol order).
struct SolveOutcome {
  enum class Status {
    kEncoded,     ///< `encoding` satisfies every constraint
    kInfeasible,  ///< the constraints cannot all be satisfied
    kTruncated,   ///< a budget expired before an encoding was found
  };
  Status status = Status::kInfeasible;
  /// True when an encoded outcome's minimality was proved within every
  /// budget; the pipelines leave it false on every other status.
  bool minimal = false;
  /// First budget/limit that tripped (kNone on a clean run). An encoded
  /// outcome with a truncation lost only its optimality proof.
  Truncation truncation = Truncation::kNone;
  Encoding encoding;
  /// Initial dichotomies no valid raised dichotomy covers (infeasible
  /// exact-pipeline runs only; indexes the generated initial list). On a
  /// cache-enabled solve these index the *canonical* instance's initial
  /// list — the dichotomies themselves, unlike codes, have no per-symbol
  /// mapping back to the original order.
  std::vector<std::size_t> uncovered;

  // Table-1 style counters (exact pipeline).
  std::size_t num_initial = 0;
  std::size_t num_raised = 0;
  std::size_t num_primes = 0;
  std::size_t num_valid_primes = 0;
  // Extension-pipeline counters.
  std::size_t num_candidates = 0;
  std::size_t num_aux_columns = 0;
  /// Covering-search nodes (binate nodes on the extension path).
  std::uint64_t nodes_explored = 0;

  /// fnv1a64 of the producing run's stats tree rendered as
  /// "name:work:items{children}", taken when the pipeline returns — lets
  /// tools spot-check that a hit corresponds to the same amount of
  /// underlying work without storing the whole tree.
  std::uint64_t stats_fingerprint = 0;

  bool encoded() const { return status == Status::kEncoded; }
};

/// Stable lowercase name: "encoded", "infeasible", "truncated" — the
/// `status` vocabulary of the encodesat-cache-v1 format and fuzz reports.
const char* solve_status_name(SolveOutcome::Status status);

/// Inverse of solve_status_name; returns false for unknown names.
bool solve_status_from_name(const char* name, SolveOutcome::Status* out);

}  // namespace encodesat
