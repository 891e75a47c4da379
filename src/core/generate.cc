#include "core/generate.h"

namespace encodesat {

std::vector<InitialDichotomy> generate_initial_dichotomies(
    const ConstraintSet& cs) {
  const std::size_t n = cs.num_symbols();
  std::vector<InitialDichotomy> out;

  // Face-embedding constraints: (M; t) and (t; M) for every outside symbol.
  for (std::size_t fi = 0; fi < cs.faces().size(); ++fi) {
    const FaceConstraint& f = cs.faces()[fi];
    const Bitset members = index_bitset(n, f.members);
    Bitset excluded = members | index_bitset(n, f.dontcares);
    for (std::uint32_t t = 0; t < n; ++t) {
      if (excluded.test(t)) continue;
      Dichotomy d(n);
      d.left = members;
      d.right.set(t);
      out.push_back(InitialDichotomy{d, static_cast<int>(fi)});
      out.push_back(InitialDichotomy{d.flipped(), static_cast<int>(fi)});
    }
  }

  // Uniqueness: for each unordered pair not separated by some
  // face-generated dichotomy, add both orientations of ({a}; {b}).
  const std::size_t num_face_dichotomies = out.size();
  for (std::uint32_t a = 0; a + 1 < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      bool separated = false;
      for (std::size_t i = 0; i < num_face_dichotomies && !separated; ++i) {
        const Dichotomy& d = out[i].dichotomy;
        separated = (d.in_left(a) && d.in_right(b)) ||
                    (d.in_left(b) && d.in_right(a));
      }
      if (separated) continue;
      Dichotomy d(n);
      d.left.set(a);
      d.right.set(b);
      out.push_back(InitialDichotomy{d, -1});
      out.push_back(InitialDichotomy{d.flipped(), -1});
    }
  }
  return out;
}

}  // namespace encodesat
