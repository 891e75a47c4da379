// Section 4: encoding-constraint satisfaction abstracted as binate covering.
//
// Columns are all 2^n - 2 possible encoding columns (bit patterns over the
// symbols; all-0 and all-1 carry no information and are excluded, footnote 1
// of the paper). Rows are:
//   - one unate row per face-derived encoding-dichotomy and per uniqueness
//     pair, listing the columns that cover it;
//   - one negative row (single 0 entry) per column that violates an output
//     constraint, forbidding its selection.
// A minimum binate cover is a minimum-length satisfying encoding. This is
// exponential in the number of symbols and exists as the paper's conceptual
// bridge — and, here, as the brute-force oracle the dichotomy algorithms
// are tested against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/constraints.h"
#include "core/encoding.h"
#include "core/status.h"
#include "covering/binate.h"

namespace encodesat {

struct BinateTable {
  /// Encoding column c assigns symbol s the bit (patterns[c] >> s) & 1.
  std::vector<std::uint64_t> patterns;
  BinateCoverProblem problem;
  std::size_t num_unate_rows = 0;
  std::size_t num_negative_rows = 0;
};

/// Builds the full table. Requires cs.num_symbols() <= 20 (the table has
/// 2^n - 2 columns); throws std::invalid_argument beyond that.
BinateTable build_binate_table(const ConstraintSet& cs);

/// Brute-force exact minimum-length encoding via the binate table. The
/// context's budget (deadline/work/cancellation) bounds the cover search.
/// kInfeasible means the search ran to completion and found no encoding;
/// a budget that expires first yields kTruncated, never kInfeasible.
/// Fills `nodes_explored`; the other counters stay 0.
SolveOutcome binate_table_encode(const ConstraintSet& cs,
                                 const BinateCoverOptions& opts = {},
                                 const ExecContext& ctx = {});

}  // namespace encodesat
