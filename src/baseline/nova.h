// NOVA-like baseline for bounded-length input encoding (Villa &
// Sangiovanni-Vincentelli, "NOVA: State Assignment of Finite State Machines
// for Optimal Two-Level Logic Implementations", TCAD Sept 1990).
//
// Reimplemented from the published description for the Table 2 comparison:
// greedy placement of symbols into the code hypercube ordered by constraint
// involvement, followed by iterative improvement via code swaps, maximizing
// the number of satisfied face constraints (NOVA's "iohybrid" objective at
// minimum code length).
#pragma once

#include "core/constraints.h"
#include "core/encoding.h"

namespace encodesat {

/// Encodes all symbols in `bits` bits (bits >= ceil(log2 n)) maximizing
/// satisfied face constraints. Output constraints are ignored (NOVA's
/// constraint satisfaction handles input constraints).
Encoding nova_encode(const ConstraintSet& cs, int bits);

}  // namespace encodesat
