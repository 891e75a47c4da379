// Exact bounded-length encoding — the exact version of problem P-3 the
// paper describes (and dismisses as "clearly infeasible on all but trivial
// instances"): among all k-bit encodings, find one violating the fewest
// face constraints.
//
// Implemented as branch-and-bound over injective code assignments with
// face-violation pruning and a first-symbol symmetry break. Exponential by
// nature; used as the optimality oracle for the Section 7.1 heuristic on
// small instances (tests/exact_bounded_test.cc) and available to users with
// genuinely tiny problems.
#pragma once

#include <cstdint>

#include "core/constraints.h"
#include "core/encoding.h"

namespace encodesat {

struct ExactBoundedOptions {
  std::uint64_t max_nodes = 20'000'000;
};

struct ExactBoundedResult {
  /// kSolved: `encoding` is the best assignment found. kBudget: the node
  /// budget ran out before any assignment met the output constraints.
  /// kTooLarge: `bits` is outside 1..16. kInfeasible: the search finished
  /// and no injective `bits`-bit assignment meets the output constraints.
  enum class Status { kSolved, kBudget, kTooLarge, kInfeasible };
  Status status = Status::kTooLarge;
  Encoding encoding;
  /// Number of violated face constraints of `encoding`.
  int violated_faces = 0;
  /// True when the search space was exhausted (the result is optimal).
  bool optimal = false;
  std::uint64_t nodes_explored = 0;
};

/// Minimizes the number of violated face constraints over all injective
/// k-bit encodings. Output constraints of `cs` are enforced as hard
/// constraints (assignments violating them are discarded). Requires
/// 2^bits >= num_symbols and bits <= 16.
ExactBoundedResult exact_bounded_encode(const ConstraintSet& cs, int bits,
                                        const ExactBoundedOptions& opts = {});

}  // namespace encodesat
