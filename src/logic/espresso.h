// ESPRESSO-style heuristic two-level minimization: EXPAND / IRREDUNDANT /
// REDUCE iterated to a local minimum (Brayton et al., 1984; Rudell &
// Sangiovanni-Vincentelli, "Multiple-Valued Minimization for PLA
// Optimization", 1987).
//
// This is the workhorse behind (a) symbolic-minimization constraint
// generation from FSMs, (b) the paper's Fig. 9 cost functions (#cubes and
// #literals of the encoded constraints), and (c) encoded-PLA size reporting.
#pragma once

#include "logic/cover.h"

namespace encodesat {

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
/// irredundant and prime with respect to the OFF-set.
Cover espresso(const Cover& on, const Cover& dc,
               const EspressoOptions& opts = {}, EspressoStats* stats = nullptr);

/// EXPAND: makes each cube prime against the given OFF-set, removing cubes
/// that become covered by an expanded one. Exposed for tests/ablations.
void expand_against_offset(Cover& f, const Cover& off);

/// IRREDUNDANT: removes cubes covered by the rest of the cover plus dc.
void make_irredundant(Cover& f, const Cover& dc);

/// REDUCE: shrinks each cube to the smallest cube still covering the part of
/// it not covered by the rest of the cover plus dc.
void reduce_cover(Cover& f, const Cover& dc);

}  // namespace encodesat
