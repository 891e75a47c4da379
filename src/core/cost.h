// Cost functions for bounded-length encoding (Section 7, Figure 9).
//
// For each face constraint I and a given encoding, define the logic
// function F_I over the code space whose ON-set is the member codes,
// OFF-set the codes of symbols outside the constraint, and DC-set the
// unused codes (plus the codes of encoding don't-care symbols). A satisfied
// constraint minimizes to a single product term; the product terms /
// literals of each F_I, minimized separately and summed over the
// constraints, measure how well a fixed-length encoding realizes them.
#pragma once

#include "core/constraints.h"
#include "core/encoding.h"
#include "logic/cover.h"

namespace encodesat {

enum class CostKind {
  kViolatedFaces,  ///< number of face constraints not satisfied
  kCubes,          ///< product terms of the minimized encoded constraints
  kLiterals,       ///< input literals of the minimized encoded constraints
};

struct EncodingCost {
  int violated_faces = 0;
  int cubes = 0;
  int literals = 0;

  int by_kind(CostKind k) const {
    switch (k) {
      case CostKind::kViolatedFaces: return violated_faces;
      case CostKind::kCubes: return cubes;
      case CostKind::kLiterals: return literals;
    }
    return 0;
  }
};

/// Don't-care cover of the unused code points, over the single-output
/// Domain::binary(enc.bits, 1) — shared by every per-face evaluation.
Cover unused_code_dontcares(const Encoding& enc);

/// Cost of one face constraint: satisfied => exactly one product term by
/// construction; violated => the ESPRESSO-minimized member cover.
struct FaceCost {
  bool satisfied = false;
  int cubes = 0;
  int literals = 0;
};
FaceCost evaluate_face_cost(const Encoding& enc, const ConstraintSet& cs,
                            const FaceConstraint& f, const Cover& unused_dc,
                            bool fast);

/// Evaluates all three cost functions (sums of per-face costs). `fast`
/// uses the single-pass ESPRESSO mode (for inner loops of the heuristic
/// encoder and the annealer).
EncodingCost evaluate_encoding_cost(const Encoding& enc,
                                    const ConstraintSet& cs,
                                    bool fast = false);

}  // namespace encodesat
