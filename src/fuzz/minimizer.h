// Automatic delta-debugging minimizer for fuzz-found divergences.
//
// Given a constraint set on which some predicate holds (typically "the
// differential driver still reports a divergence of this rule"), the
// minimizer greedily shrinks the case while the predicate keeps holding:
//   1. whole-constraint removal, one constraint at a time across every
//      class, repeated to a fixpoint;
//   2. element-level shrinking inside surviving constraints (dropping a
//      face member or don't-care, a disjunctive child, an
//      extended-disjunctive conjunction or conjunction member, a non-face
//      member — never below the grammar's arity minimums);
//   3. removal of symbols no remaining constraint references (they still
//      affect verdicts — distinct-code pressure and face intrusion — so
//      each removal is re-validated against the predicate).
// The result is the smallest case greedy removal can reach, ready to be
// committed as a regression test via the reproducer format.
#pragma once

#include <functional>

#include "fuzz/differential.h"

namespace encodesat {

using DivergencePredicate = std::function<bool(const ConstraintSet&)>;

struct MinimizeResult {
  ConstraintSet constraints;
  int removed_constraints = 0;
  int removed_elements = 0;
  int removed_symbols = 0;
  /// Number of predicate evaluations spent.
  int probes = 0;
};

/// Shrinks `cs` while `still_diverges` holds; `still_diverges(cs)` itself
/// must be true on entry (otherwise the input is returned unchanged).
MinimizeResult minimize_divergence(const ConstraintSet& cs,
                                   const DivergencePredicate& still_diverges);

/// The standard predicate: run_differential_case still reports at least
/// one divergence of `rule`.
DivergencePredicate rule_predicate(FuzzRule rule,
                                   const DifferentialOptions& opts);

}  // namespace encodesat
