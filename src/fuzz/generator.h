// Seeded random constraint-set generator for the differential fuzzing
// subsystem (src/fuzz/).
//
// Cases are generated from a per-case seed derived with a splitmix64 step
// from (run seed, case index), so the case stream is bit-identical for a
// given run seed regardless of how the driver schedules cases across
// threads. The generator is parameterized over the largest symbol count,
// the mix of constraint classes, encoding don't-care density, and a rate of
// deliberately infeasible mutations (mutual dominance, dominance cycles,
// disjunctive/dominance clashes that force equal codes, and the paper's
// Figure 4 pattern — the counterexample on which the Devadas–Newton local
// check wrongly answers "feasible").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/constraints.h"

namespace encodesat {

struct GeneratorOptions {
  /// Symbol counts are drawn uniformly from [3, max_symbols].
  std::uint32_t max_symbols = 10;

  /// Relative class weights for each generated constraint; a weight of 0
  /// disables the class. Classes needing >= 3 symbols are skipped on
  /// smaller cases regardless of weight.
  double face_weight = 1.0;
  double dominance_weight = 0.8;
  double disjunctive_weight = 0.4;
  double extended_weight = 0.25;
  double distance2_weight = 0.1;
  double nonface_weight = 0.1;

  /// Expected number of constraints = constraints_per_symbol * n (min 1).
  double constraints_per_symbol = 0.9;
  /// Probability that a symbol outside a face's members joins its
  /// encoding don't-care set (Section 8.1).
  double dontcare_density = 0.25;
  /// Probability that a case receives one deliberately infeasible
  /// mutation on top of its random constraints.
  double infeasible_mutation_rate = 0.2;
};

/// Named mix presets for the CLI's --mix flag:
///   default     the GeneratorOptions defaults above
///   input       face constraints only, heavier don't-cares, no mutations
///   output      dominance/disjunctive/extended-heavy, more mutations
///   extensions  distance-2/non-face boosted (binate extension pipeline)
///   infeasible  every case receives an infeasible mutation
/// Returns std::nullopt for an unknown name.
std::optional<GeneratorOptions> generator_mix(const std::string& name);

/// Derives the per-case seed from the run seed and case index (one
/// splitmix64 mixing step — cases are independent and order-free).
std::uint64_t fuzz_case_seed(std::uint64_t run_seed, std::uint64_t index);

/// Generates one random constraint set from a per-case seed. Symbols are
/// named s0..s{n-1}; every emitted constraint is well formed under
/// parse_constraints' degeneracy rules, so generated cases round-trip
/// through reproducer files.
ConstraintSet generate_case(std::uint64_t case_seed,
                            const GeneratorOptions& opts = {});

}  // namespace encodesat
