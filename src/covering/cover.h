// The one result type of the covering engines: unate covering
// (covering/unate.h, the exact encoder's Fig. 7 step) and binate covering
// (covering/binate.h, §4 and the §8 extensions) both return a
// CoverSolution.
#pragma once

#include <cstdint>
#include <vector>

#include "util/exec.h"

namespace encodesat {

struct CoverSolution {
  /// True when a cover (or satisfying selection) was found. False means
  /// *either* proven infeasible (`truncation == kNone`) or unknown because
  /// a budget expired first — test `proven_infeasible()` before treating
  /// it as a certificate. (The unate engine keeps its greedy cover when a
  /// budget runs out, so its `false` is always proven.)
  bool feasible = false;
  /// True when branch-and-bound proved optimality within every budget.
  bool optimal = false;
  /// Selected columns, ascending.
  std::vector<std::size_t> columns;
  /// Total weight of `columns`. Meaningful only when `feasible`; -1
  /// otherwise (so "no solution" can never be mistaken for a legitimate
  /// zero-cost cover of an empty problem).
  int cost = -1;
  std::uint64_t nodes_explored = 0;
  /// Unit-propagation forced assignments (root + search), and
  /// cost-/bound-based subtree prunes. Binate only; 0 on the unate engine.
  std::uint64_t propagations = 0;
  std::uint64_t prune_hits = 0;
  /// Columns surviving the root reduction (the search ran over these); see
  /// the covering bench.
  std::size_t columns_after_reduction = 0;
  /// Independent connected components the root decomposed the search into.
  std::size_t components = 1;
  /// Search-arena traffic summed over components (column + row sets):
  /// fresh slot creations and free-list reuses. Deterministic across
  /// thread counts — each component runs single-threaded with a private
  /// node budget.
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_reuses = 0;
  /// Largest single-component arena footprint in bytes.
  std::size_t peak_arena_bytes = 0;
  /// Why the search stopped early (kNone on a complete run): kNodeLimit
  /// for the per-component node budget, kDeadline/kWorkBudget/kCancelled
  /// for a shared Budget on `ctx`.
  Truncation truncation = Truncation::kNone;

  /// The search ran to completion and found no cover — a certificate.
  bool proven_infeasible() const {
    return !feasible && truncation == Truncation::kNone;
  }
};

}  // namespace encodesat
