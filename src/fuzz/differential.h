// Differential correctness driver: runs one constraint set through every
// implementation in the repository that has an opinion about it and checks
// the results against each other and against the independent
// `verify_encoding` oracle.
//
// Agreement rules (each has a stable name for reports and reproducers):
//   oracle            exact/extension encode succeeded => verify_encoding
//                     reports zero violations
//   feasibility       P-1 feasibility agrees with the encode status
//                     (restricted to constraint sets without §8.2/§8.3
//                     extension constraints, which P-1 does not model)
//   local_unsound     the Devadas–Newton local check answered "infeasible"
//                     (its conditions are necessary) while the exact check
//                     answered "feasible"
//   witness           an infeasibility verdict whose uncovered-dichotomy
//                     evidence fails verify_infeasibility_witness
//   threads           threads=1 and threads=N disagree on status, codes or
//                     Table-1 counters
//   stats             the StageStats tree (names, work, items, truncation —
//                     wall-clock excluded) differs between the threads=1 and
//                     threads=N runs; covers the arena fold counters
//   baseline_feasible exact says infeasible but a baseline encoder (nova /
//                     annealing) produced a violation-free encoding
//                     (restricted to instances without extension
//                     constraints — the §8 pipeline's candidate pool is
//                     heuristic, so its "infeasible" is not a certificate)
//   baseline_codes    a baseline produced duplicate codes (both keep codes
//                     distinct by construction)
//   minimality        exact proved minimality at L bits but nova found a
//                     violation-free encoding in fewer bits
//   bounded_codes     the bounded-length heuristic produced duplicate codes
//   cost              bounded_encode's violated-faces cost disagrees with
//                     the oracle's face-violation count
//   counters          the MetricsRegistry structural fingerprint (sorted
//                     counter names + values; obs/counters.h) differs
//                     between the threads=1 and threads=N runs — the
//                     observability subsystem's own determinism check
//   histograms        the histogram bucket-count fingerprint (sorted
//                     histogram names + nonzero bucket indices and counts;
//                     value sums excluded — obs/histogram.h) differs
//                     between the threads=1 and threads=N runs; covers the
//                     solve.work / solve.stage_work distributions
//   cache             solving a symbol-permuted copy of the case against a
//                     warm solve cache (normally a hit) and against a fresh
//                     cache at threads=N (a miss) disagree on status, bits,
//                     codes, minimality or counters; or a cache-served
//                     encoding fails the oracle; or the warm lookup missed
//                     even though both canonicalizations were exact
//   binate_truncation the extension pipeline forced onto the case with a
//                     deliberately tiny binate-cover node budget reported
//                     "infeasible" together with a truncation (a budget is
//                     never an infeasibility certificate), or the
//                     threads=1 and threads=N runs were not bit-identical
//                     despite only deterministic (node/work) budgets
//                     tripping
//
// Every rule is deterministic: solver budgets are work-based (never
// wall-clock), the baseline encoders use fixed seeds, and the
// thread fan-out paths are bit-deterministic by the library's determinism
// contract — so a divergence verdict replays exactly from a reproducer
// file, and same-seed fuzz runs are identical for any driver thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "util/exec.h"

namespace encodesat {

enum class FuzzRule {
  kOracle,
  kFeasibility,
  kLocalUnsound,
  kWitness,
  kThreads,
  kStats,
  kBaselineFeasible,
  kBaselineCodes,
  kMinimality,
  kBoundedCodes,
  kCost,
  kCounters,
  kHistograms,
  kCache,
  kBinateTruncation,
};

/// Stable lower-case rule name as listed above.
const char* fuzz_rule_name(FuzzRule rule);
/// Inverse of fuzz_rule_name; false on unknown names.
bool fuzz_rule_from_name(const std::string& name, FuzzRule* rule);

struct FuzzDivergence {
  FuzzRule rule;
  std::string detail;
};

struct FuzzCaseResult {
  /// Budgets tripped somewhere, so status-dependent rules were skipped
  /// (the case still counts toward the stream, never as a divergence).
  bool truncated = false;
  /// Exact verdicts, for stream statistics.
  bool feasible = false;
  bool encoded = false;
  std::vector<FuzzDivergence> divergences;

  bool ok() const { return divergences.empty(); }
};

struct DifferentialOptions {
  /// Deterministic per-case work budget (bitset word operations) for each
  /// solver run; cases that trip it are counted as truncated, not failed.
  std::uint64_t max_work_per_case = 4'000'000;
  /// Node budgets for the covering searches (same motivation).
  std::uint64_t max_cover_nodes = 4'000;
  /// Run the `cache` agreement rule (three extra solves per case, each
  /// against a private per-case SolveCache — fuzz cases never share cache
  /// state, so same-seed runs stay bit-identical for any driver fan-out).
  bool check_cache = true;
  /// Byte budget for each per-case cache (the fuzz `--cache-size` flag).
  std::size_t cache_max_bytes = 64u << 20;

  /// Optional aggregate counter registry (obs/counters.h): each case's
  /// threads=1 run merges its counters in, so a fuzz run reports pipeline
  /// totals in its telemetry. Shared across driver threads (atomic adds);
  /// borrowed, must outlive the run.
  MetricsRegistry* metrics = nullptr;
};

/// Runs every agreement rule over one constraint set.
FuzzCaseResult run_differential_case(const ConstraintSet& cs,
                                     const DifferentialOptions& opts = {});

struct FuzzDivergentCase {
  std::uint64_t index = 0;      ///< case index within the run
  std::uint64_t case_seed = 0;  ///< fuzz_case_seed(run seed, index)
  FuzzCaseResult result;
  std::string constraints_text;  ///< the case, in the constraint grammar
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::uint64_t cases = 0;
  std::uint64_t feasible = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t truncated = 0;
  std::vector<FuzzDivergentCase> divergent;  ///< ordered by case index

  /// One-line summary, e.g.
  /// "fuzz: seed 1, 2000 cases, 1410 feasible / 590 infeasible,
  ///  0 truncated, 0 divergences".
  std::string summary() const;
};

struct FuzzRunOptions {
  GeneratorOptions generator;
  DifferentialOptions differential;
  /// Driver fan-out width over cases (0 = all hardware threads). The
  /// report is identical for every value.
  int threads = 1;
  /// Optional span sink: each case is wrapped in a "fuzz_case" span (the
  /// solver spans inside a case are not traced — per-case registries stay
  /// private to the divergence check). Borrowed, must outlive the run.
  TraceSink* tracer = nullptr;
};

/// Generates and checks `cases` cases derived from `seed`. Deterministic:
/// the report (including divergence order and details) depends only on
/// (seed, cases, options).
FuzzReport run_fuzz(std::uint64_t seed, std::uint64_t cases,
                    const FuzzRunOptions& opts = {});

}  // namespace encodesat
