// Section 8 extensions: distance-2 constraints (testability, §8.2) and
// non-face constraints (§8.3) on top of the dichotomy framework, solved as
// a binate covering problem.
//
// The candidate columns are the valid maximally raised prime
// encoding-dichotomies (plus the raised initial set as a safety net), each
// *totalized* into a concrete encoding column by the default-to-right rule
// of Theorem 6.1. Totalizing makes every row condition exact on the final
// codes: coverage of an initial dichotomy, bit-difference for distance-2
// clauses, and face separation for the non-face auxiliary clauses. The
// solution is therefore guaranteed valid; it is minimum-length over this
// candidate column set (the paper, likewise, selects among the generated
// primes).
//
// Run it through Solver::encode (core/solver.h): Pipeline::kAuto routes
// here whenever distance-2 or non-face constraints are present, and
// Pipeline::kExtensions forces it.
#pragma once

#include "core/constraints.h"
#include "core/encoder.h"
#include "core/encoding.h"
#include "covering/binate.h"

namespace encodesat {

struct ExtensionEncodeOptions {
  PrimeGenOptions prime_options;
  BinateCoverOptions cover_options;
};

}  // namespace encodesat
