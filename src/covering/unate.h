// Exact and heuristic unate covering.
//
// The final step of the paper's exact encoder (Fig. 7) selects a minimum
// set of prime encoding-dichotomies covering every initial
// encoding-dichotomy — a classical unate covering problem. The solver uses
// the standard reductions (essential columns, row dominance, column
// dominance) plus a maximal-independent-set lower bound inside
// branch-and-bound, with a node budget so callers can fall back to the
// greedy solution on pathological instances.
#pragma once

#include <cstdint>
#include <vector>

#include "covering/cover.h"
#include "util/bitset.h"
#include "util/exec.h"

namespace encodesat {

struct UnateCoverProblem {
  /// Number of selectable columns.
  std::size_t num_columns = 0;
  /// Per-column weights, each at least 0; empty means unit weights.
  std::vector<int> weights;
  /// rows[i] = the set of columns that cover row i (universe num_columns).
  std::vector<Bitset> rows;
};

struct UnateCoverOptions {
  /// Branch-and-bound node budget; 0 means greedy only.
  std::uint64_t max_nodes = 2'000'000;
};

/// Solves min-cost column selection such that every row contains a selected
/// column. Infeasible iff some row is empty. After the root reduction the
/// problem splits into its connected components (rows sharing no columns),
/// each searched independently with its own `max_nodes` budget — and, when
/// `ctx.num_threads` > 1, concurrently. The selected columns are identical
/// for every thread count; `ctx.budget` (deadline/cancellation, polled on
/// each search's first node and every 1024 nodes after it; a pending
/// cancellation leaves the greedy cover) only affects whether optimality
/// is proved. Throws std::invalid_argument when `weights` is non-empty
/// with a size other than `num_columns` or holds a negative weight, or
/// when a row's universe differs from `num_columns`.
CoverSolution solve_unate_cover(const UnateCoverProblem& problem,
                                const UnateCoverOptions& options = {},
                                const ExecContext& ctx = {});

/// Greedy (largest cover-count / weight first) — used as the upper bound
/// seed and as the standalone heuristic solver. Checks its problem like
/// solve_unate_cover.
CoverSolution greedy_unate_cover(const UnateCoverProblem& problem);

}  // namespace encodesat
