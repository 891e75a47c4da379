// The paper's core algorithms: feasibility of mixed input/output
// constraints (Figure 6, Theorem 6.1 — problem P-1) and the options of
// exact minimum-length encoding (Figure 7, Theorem 6.2 — problem P-2),
// which runs through Solver::encode (core/solver.h).
#pragma once

#include <cstdint>
#include <vector>

#include "core/constraints.h"
#include "core/dichotomy.h"
#include "core/encoding.h"
#include "core/generate.h"
#include "core/primes.h"
#include "covering/unate.h"

namespace encodesat {

struct FeasibilityResult {
  bool feasible = false;
  /// Indices (into the initial dichotomy list) left uncovered by every
  /// valid maximally raised dichotomy; empty iff feasible.
  std::vector<std::size_t> uncovered;
  /// The initial dichotomies (I) and the valid maximally raised set (D),
  /// exposed for diagnostics and for the worked-example benches.
  std::vector<InitialDichotomy> initial;
  std::vector<Dichotomy> raised;
};

/// P-1 in time polynomial in symbols × constraints: generate I, delete
/// invalid dichotomies, raise the survivors maximally, delete any that
/// became invalid, and check that every i ∈ I is covered by some d ∈ D.
/// Pass ExecContext{} when no budget/stats plumbing is needed, or use the
/// Solver facade (core/solver.h).
FeasibilityResult check_feasible(const ConstraintSet& cs,
                                 const ExecContext& ctx);

/// Machine-checks an infeasibility verdict against its own evidence: the
/// result must be infeasible with a non-empty `uncovered` witness, every
/// witness index must name an initial dichotomy, no dichotomy in `raised`
/// may cover it (Theorem 6.1's feasibility condition), and every raised
/// dichotomy must itself be valid. Returns false (and fills `*why` when
/// non-null) if the evidence does not support the verdict — the fuzz
/// differential driver treats that as a solver bug.
bool verify_infeasibility_witness(const ConstraintSet& cs,
                                  const FeasibilityResult& result,
                                  std::string* why = nullptr);

struct ExactEncodeOptions {
  PrimeGenOptions prime_options;
  UnateCoverOptions cover_options;
};

}  // namespace encodesat
