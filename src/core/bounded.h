// Bounded-length heuristic encoding — problem P-3 (Section 7.1).
//
// The exact approach would enumerate all 2^(n-1) encoding-dichotomies and
// solve a weighted covering; instead the heuristic recursively
//   1. SPLITS the symbol set in two (Kernighan-Lin style local search
//      minimizing the constraints cut by the partition dichotomy),
//   2. solves each side with one fewer code bit,
//   3. MERGES the children's restricted dichotomies by cross-product
//      (both orientations), and
//   4. SELECTS the c best dichotomies under the global cost function
//      restricted to the subset (number of violated faces, or cubes /
//      literals of the encoded constraints per Figure 9).
// Output constraints are not optimized by this heuristic (the paper's
// Tables 2 and 3 use it for input constraints); they are checked only
// through the returned cost/violations.
#pragma once

#include <cstdint>

#include "core/constraints.h"
#include "core/cost.h"
#include "core/encoding.h"
#include "util/exec.h"

namespace encodesat {

struct BoundedEncodeOptions {
  CostKind cost = CostKind::kCubes;
  /// Budget of cost evaluations per selection step; beyond it the selection
  /// falls back from exhaustive enumeration to greedy + hill climbing.
  int max_selection_evals = 400;
  /// Passes of the final pairwise-swap improvement on the derived codes
  /// (incremental per-face re-evaluation; 0 disables).
  int polish_passes = 3;
};

struct BoundedEncodeResult {
  Encoding encoding;
  /// Final cost of the returned encoding (full-quality evaluation).
  EncodingCost cost;
  /// Set when a shared Budget expired mid-optimization: the encoding is
  /// still valid (codes are unique by construction), just less polished.
  Truncation truncation = Truncation::kNone;
};

/// Encodes all symbols of cs in exactly `code_length` bits, minimizing the
/// chosen cost function heuristically. Requires
/// code_length >= ceil(log2(num_symbols)) (throws std::invalid_argument).
/// `ctx.budget` (deadline/cancellation) degrades the local search
/// gracefully — selection and polish stop improving when it expires, the
/// structurally safe encoding is always returned.
BoundedEncodeResult bounded_encode(const ConstraintSet& cs, int code_length,
                                   const BoundedEncodeOptions& opts = {},
                                   const ExecContext& ctx = {});

/// Minimum number of bits needed to give distinct codes to n symbols.
int minimum_code_length(std::uint32_t n);

}  // namespace encodesat
