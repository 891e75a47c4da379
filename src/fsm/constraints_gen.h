// Symbolic-minimization front-end: derives encoding constraints from an
// unencoded FSM, the first phase of the two-phase encoding paradigm.
//
// Input (face) constraints follow the ESPRESSO-MV route of NOVA [Villa &
// Sangiovanni-Vincentelli 1990]: the present state is one multiple-valued
// input variable, the next state is one-hot in the output part; each cube
// of the MV-minimized cover groups the present states of its MV literal,
// and every group of 2 <= |group| < n states becomes a face constraint.
//
// Output (dominance/disjunctive) constraints follow the spirit of
// De Micheli's symbolic minimization [TCAD 1986] ("an extension of the
// procedure described in [6] that also generates good disjunctive effects",
// as used for the paper's Table 1): a dominance a > b is proposed when
// letting a's code cover b's lets the ON-set of next-state a absorb b's
// transitions as don't-cares and shrink; a disjunctive a = b OR c is
// proposed when a's ON-set is contained in the union of b's and c's.
// Each proposal is kept only if the whole constraint set stays feasible
// (check_feasible), mirroring how a symbolic minimizer only commits to
// realizable covers.
#pragma once

#include "core/constraints.h"
#include "core/encoder.h"
#include "fsm/fsm.h"
#include "logic/cover.h"

namespace encodesat {

struct ConstraintGenOptions {
  /// Generate face constraints with encoding don't-cares: a state whose
  /// transitions are compatible with a group joins it as a don't-care
  /// member rather than a full member (used by the multi-level flow of
  /// Table 3).
  bool face_dontcares = false;
  /// Upper bounds keeping generated sets comparable to the paper's.
  int max_dominance = 12;
  int max_disjunctive = 4;
};

/// The one-hot multi-valued cover of the FSM's transition function:
/// binary primary inputs + one MV present-state variable; outputs are the
/// one-hot next state followed by the primary outputs.
Cover fsm_symbolic_cover(const Fsm& fsm);

/// Face constraints from MV minimization of the symbolic cover.
ConstraintSet generate_input_constraints(const Fsm& fsm,
                                         const ConstraintGenOptions& opts = {});

/// Face constraints plus dominance/disjunctive output constraints. Only
/// output constraints that keep the whole set feasible are added (the
/// symbolic minimizer only emits realizable covers).
ConstraintSet generate_mixed_constraints(const Fsm& fsm,
                                         const ConstraintGenOptions& opts = {});

}  // namespace encodesat
