// Output-constraint rules on encoding-dichotomies: validity (Definition 3.6
// / procedure remove_invalid_dichotomies) and maximal raising (Definitions
// 6.1-6.2 / procedure raise_dichotomy) — Figures 5 and 6 of the paper.
#pragma once

#include <vector>

#include "core/constraints.h"
#include "core/dichotomy.h"

namespace encodesat {

/// True iff the (possibly partial) dichotomy can still be extended to a full
/// encoding column satisfying every dominance, disjunctive and extended
/// disjunctive constraint:
///  - dominance a > b: invalid if a ∈ left and b ∈ right (bit of a would be
///    0 while bit of b is 1);
///  - disjunctive p = OR(children): invalid if p ∈ left while some child is
///    in right, or p ∈ right while every child is in left;
///  - extended disjunctive OR(AND(conj)) >= p: invalid if p ∈ right while
///    every conjunction already contains a child in left.
/// (The disjunctive left-block rule is stated more loosely in the paper's
/// Figure 5 pseudo-code, but its own Figure 8 example deletes (s0 s1; s3)
/// against s0 = s1 ∨ s3 — i.e. a single child in the right block suffices —
/// so we implement that semantics.)
bool dichotomy_valid(const Dichotomy& d, const ConstraintSet& cs);

/// Removes the dichotomies that violate an output constraint.
void remove_invalid_dichotomies(std::vector<Dichotomy>& ds,
                                const ConstraintSet& cs);

/// Maximally raises d with respect to the output constraints (fixpoint of
/// the implication rules in Figure 5). Returns false if raising derives a
/// contradiction (a symbol forced into both blocks), in which case d should
/// be discarded.
bool raise_dichotomy(Dichotomy& d, const ConstraintSet& cs);

/// Theorem 6.1's filter on one dichotomy: it must be valid, raise maximally
/// without contradiction, and still be valid once raised. Raises d in place
/// and returns whether it survives; when false, d should be discarded.
bool raise_and_validate(Dichotomy& d, const ConstraintSet& cs);

}  // namespace encodesat
