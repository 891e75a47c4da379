#include "core/cost.h"

#include "core/verify.h"
#include "logic/espresso.h"
#include "logic/urp.h"

namespace encodesat {

namespace {

// Cube of the single-output code space whose input part is exactly the
// given code (a minterm) and which asserts the output.
Cube code_minterm(const Domain& dom, std::uint64_t code) {
  Cube c(dom);
  for (int v = 0; v < dom.num_inputs(); ++v) {
    const int bit = static_cast<int>((code >> v) & 1u);
    c.bits.set(static_cast<std::size_t>(dom.pos(v, bit)));
  }
  c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
  return c;
}

}  // namespace

Cover unused_code_dontcares(const Encoding& enc) {
  const Domain dom = Domain::binary(enc.bits, 1);
  Cover used(dom);
  for (const std::uint64_t code : enc.codes) used.add(code_minterm(dom, code));
  return complement(used);
}

FaceCost evaluate_face_cost(const Encoding& enc, const ConstraintSet& cs,
                            const FaceConstraint& f, const Cover& unused_dc,
                            bool fast) {
  const Domain& dom = unused_dc.domain();
  FaceCost cost;
  cost.satisfied = face_satisfied(enc, cs, f);
  Cover on(dom);
  if (cost.satisfied) {
    // A satisfied constraint is one product term by construction: the
    // spanned face contains only member and don't-care codes.
    Cube span(dom);
    bool first = true;
    for (auto m : f.members) {
      const Cube point = code_minterm(dom, enc.codes[m]);
      span = first ? point : cube_supercube(span, point);
      first = false;
    }
    on.add(span);
  } else {
    for (auto m : f.members) on.add(code_minterm(dom, enc.codes[m]));
  }
  Cover dc = unused_dc;
  for (auto m : f.dontcares) dc.add(code_minterm(dom, enc.codes[m]));
  EspressoOptions opts;
  opts.single_pass = fast;
  const Cover minimized = espresso(on, dc, opts);
  cost.cubes = static_cast<int>(minimized.size());
  cost.literals = minimized.input_literals();
  return cost;
}

EncodingCost evaluate_encoding_cost(const Encoding& enc,
                                    const ConstraintSet& cs, bool fast) {
  // Per-constraint minimization (the paper's definition in Section 7: a
  // satisfied constraint minimizes to a single product term, a violated one
  // to at least two; cubes and literals are summed over the constraints).
  EncodingCost cost;
  if (cs.faces().empty()) return cost;
  const Cover unused_dc = unused_code_dontcares(enc);
  for (const FaceConstraint& f : cs.faces()) {
    const FaceCost fc = evaluate_face_cost(enc, cs, f, unused_dc, fast);
    if (!fc.satisfied) ++cost.violated_faces;
    cost.cubes += fc.cubes;
    cost.literals += fc.literals;
  }
  return cost;
}

}  // namespace encodesat
