// Generation of the initial encoding-dichotomies from a constraint set
// (Section 5 and Section 8.1 of the paper).
//
// Every face-embedding constraint (M, [DC]) produces, for each symbol t
// outside M ∪ DC, the two oriented dichotomies (M; t) and (t; M); don't-care
// symbols produce no dichotomy at all, which is exactly what leaves them
// free to join the face or not. Uniqueness of codes is enforced by a pair
// of oriented dichotomies ({a}; {b}), ({b}; {a}) for every symbol pair not
// already separated by a face-generated dichotomy.
#pragma once

#include <cstddef>
#include <vector>

#include "core/constraints.h"
#include "core/dichotomy.h"

namespace encodesat {

struct InitialDichotomy {
  Dichotomy dichotomy;
  /// Index of the originating face constraint, or -1 for uniqueness pairs.
  int face_index = -1;
};

std::vector<InitialDichotomy> generate_initial_dichotomies(
    const ConstraintSet& cs);

}  // namespace encodesat
