// Binate covering: minimum-cost satisfaction of a product-of-sums with
// positive and negative literals (Section 4 of the paper abstracts all
// encoding-constraint satisfaction as this problem; we also use it for the
// distance-2 and non-face constraint extensions of Section 8).
//
// The solver runs root reductions (unit rows, pure literals, row
// dominance, column dominance on the pure-positive subtable), then an
// arena-backed explicit-stack branch-and-bound with unit propagation and a
// maximal-independent-set lower bound over the pure-positive residual rows.
// Its column-dominance scan, its split into independent components and
// their concurrent search and merge, with bit-identical results for every
// thread count, are the unate engine's own (covering/shared.h).
//
// Truncation honesty: a budget that expires before the search finishes is
// *never* an infeasibility certificate. Proven infeasibility is exactly
// `proven_infeasible()`: `!feasible` with `truncation == kNone`;
// `!feasible` with a truncation means "unknown — the budget ran out first"
// and callers must surface it as truncation.
#pragma once

#include <cstdint>
#include <vector>

#include "covering/cover.h"
#include "util/bitset.h"
#include "util/exec.h"

namespace encodesat {

/// One clause: satisfied if some variable in `pos` is selected or some
/// variable in `neg` is unselected.
struct BinateRow {
  Bitset pos;
  Bitset neg;
};

struct BinateCoverProblem {
  std::size_t num_columns = 0;
  /// Per-column selection weights, each at least 0; empty means unit
  /// weights. When non-empty the size must equal `num_columns` (checked by
  /// solve_binate_cover, matching the Bitset mismatched-universe policy).
  std::vector<int> weights;
  std::vector<BinateRow> rows;

  /// Appends a clause given explicit literal lists. Throws
  /// std::invalid_argument on a column index >= num_columns.
  void add_row(const std::vector<std::size_t>& pos_cols,
               const std::vector<std::size_t>& neg_cols);
};

struct BinateCoverOptions {
  /// Branch-and-bound node budget per independent component (the same
  /// full-budget-per-component rule as unate, so the decomposition is
  /// thread-count invariant).
  std::uint64_t max_nodes = 5'000'000;
};

/// DPLL-style branch-and-bound with unit propagation, root reductions and
/// component decomposition. After the root reduction the problem splits
/// into its connected components (rows sharing no columns), each searched
/// independently with its own `max_nodes` budget — and, when
/// `ctx.num_threads` > 1, concurrently. The selected columns are identical
/// for every thread count; `ctx.budget` (deadline/cancellation, polled
/// before the root reduction, then on each search's first node and every
/// 1024 nodes after it) only affects whether the search completes. Throws
/// std::invalid_argument when `weights` is non-empty with a size other
/// than `num_columns` or holds a negative weight, or when a row's universe
/// differs from `num_columns`.
CoverSolution solve_binate_cover(const BinateCoverProblem& problem,
                                 const BinateCoverOptions& options = {},
                                 const ExecContext& ctx = {});

}  // namespace encodesat
