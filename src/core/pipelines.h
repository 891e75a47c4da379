// Internal: the two encoding pipelines behind Solver::encode. Only
// core/solver.cc calls them; everything else reaches them through
// Solver::encode (core/solver.h) with SolveOptions::Pipeline::kExact or
// kExtensions, which adds routing, caching, single-flight coalescing and
// the root stats bookkeeping. No public header includes this one.
//
// Both return the deterministic SolveOutcome payload (core/status.h).
// kInfeasible is a certificate: a budget that expires before the search
// completes yields kTruncated with the budget named in `truncation`, and an
// encoded outcome whose optimality proof was cut short keeps its encoding
// with `minimal == false` and the truncation set.
#pragma once

#include "core/constraints.h"
#include "core/encoder.h"
#include "core/extensions.h"
#include "core/status.h"
#include "util/exec.h"

namespace encodesat {

/// P-2 (Figure 7, Theorem 6.2): exact minimum-length encoding satisfying
/// all input and output constraints; distance-2 and non-face constraints
/// are ignored. Deterministic for any `ctx.num_threads` under work, term
/// and node budgets (wall-clock deadlines excepted).
SolveOutcome exact_encode(const ConstraintSet& cs,
                          const ExactEncodeOptions& opts,
                          const ExecContext& ctx);

/// Section 8: minimum-length encoding satisfying face, dominance,
/// disjunctive, extended disjunctive, distance-2 and non-face constraints
/// (core/extensions.h describes the binate formulation). Throws
/// std::invalid_argument beyond 64 symbols: a candidate column is a 64-bit
/// pattern with one bit per symbol.
SolveOutcome encode_with_extensions(const ConstraintSet& cs,
                                    const ExtensionEncodeOptions& opts,
                                    const ExecContext& ctx);

}  // namespace encodesat
