// Algebraic factoring (literal-count estimation) for multi-level cost.
//
// The multi-level flow the paper's Table 3 models (MIS-MV) scores
// encodings by *factored-form* literals; during constraint satisfaction the
// paper approximates that with SOP literals, which core/cost.h follows.
// This module provides the real metric for final reporting: a quick-factor
// style recursive estimate — divide by the most frequent literal, recurse
// on quotient and remainder — in the spirit of SIS's `print_stats -f`.
#pragma once

#include "logic/cover.h"

namespace encodesat {

/// Estimated literal count of a good algebraic factorization of the
/// single-output projection of each output, summed over outputs. Always
/// <= the SOP literal count (equal when no factoring is possible).
int factored_literal_estimate(const Cover& f);

}  // namespace encodesat
