// Simulated-annealing baseline for bounded-length encoding under the
// literal/cube cost functions — the comparison point of the paper's
// Table 3 (the annealer built into MIS-MV was, before this paper, "the only
// known algorithm" for minimizing literal counts of encoded constraints
// with encoding don't-cares).
#pragma once

#include "core/constraints.h"
#include "core/cost.h"
#include "core/encoding.h"

namespace encodesat {

struct AnnealOptions {
  CostKind cost = CostKind::kLiterals;
  /// Moves attempted per temperature point (the paper varies 4 vs 10).
  int moves_per_temperature = 10;
  int temperature_points = 40;
};

struct AnnealResult {
  Encoding encoding;
  EncodingCost cost;       ///< full-quality evaluation of the final codes
  int evaluations = 0;     ///< number of cost-function calls performed
};

/// Anneals over code assignments: moves are pairwise code swaps or moves of
/// one symbol to an unused code. Output constraints are not modeled in the
/// move set (matching the MIS-MV usage on input constraints).
AnnealResult anneal_encode(const ConstraintSet& cs, int bits,
                           const AnnealOptions& opts = {});

}  // namespace encodesat
