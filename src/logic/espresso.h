// ESPRESSO-style heuristic two-level minimization: EXPAND / IRREDUNDANT /
// REDUCE iterated to a local minimum (Brayton et al., 1984; Rudell &
// Sangiovanni-Vincentelli, "Multiple-Valued Minimization for PLA
// Optimization", 1987).
//
// This is the workhorse behind (a) symbolic-minimization constraint
// generation from FSMs, (b) the paper's Fig. 9 cost functions (#cubes and
// #literals of the encoded constraints), and (c) encoded-PLA size reporting.
//
// The three passes ask the OFF- and DC-sets only point-set questions (does
// a cube meet the OFF-set; do the other cubes plus DC cover this one; what
// is the smallest cube holding the part of this one they leave uncovered),
// and the domain alone picks how they are answered. A domain of at most 6
// binary inputs and one output, such as every Fig. 9 face domain
// Domain::binary(b, 1) with b <= 6, holds each point set in one 64-bit word
// and answers with a few word operations. Every other domain (the FSM
// front end's multi-valued covers, multi-output encoded PLAs, 7 or more
// code bits) keeps the OFF-set as a URP complement and answers with cube
// intersections, URP containment and complement. Both give the same cubes
// in the same order.
#pragma once

#include "logic/cover.h"

namespace encodesat {

/// Most binary inputs of a one-output domain whose point sets ESPRESSO
/// holds in one 64-bit word: 2^6 minterms.
inline constexpr int kWordOracleMaxInputs = 6;

struct EspressoOptions {
  /// Skip the REDUCE refinement loop: single EXPAND + IRREDUNDANT pass
  /// (faster, slightly larger covers) — used by inner-loop cost evaluation.
  bool single_pass = false;
};

struct EspressoStats {
  int iterations = 0;
  std::size_t initial_cubes = 0;
  std::size_t final_cubes = 0;
};

/// Minimizes the ON-set cover `on` against don't-care cover `dc` (same
/// domain). Returns a cover equivalent to `on` modulo `dc` that is
/// irredundant and prime with respect to the OFF-set. Unless `on` is empty,
/// a cube of either cover whose size is not the domain's throws
/// std::invalid_argument.
Cover espresso(const Cover& on, const Cover& dc,
               const EspressoOptions& opts = {}, EspressoStats* stats = nullptr);

}  // namespace encodesat
