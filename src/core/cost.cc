#include "core/cost.h"

#include <algorithm>

#include "core/verify.h"
#include "logic/espresso.h"
#include "logic/urp.h"

namespace encodesat {

namespace {

// Cube whose input part is exactly the given code (a minterm of the code
// space) and whose output part is `outs`.
Cube code_minterm(const Domain& dom, std::uint64_t code, const Bitset& outs) {
  Cube c(dom);
  for (int v = 0; v < dom.num_inputs(); ++v) {
    const int bit = static_cast<int>((code >> v) & 1u);
    c.bits.set(static_cast<std::size_t>(dom.pos(v, bit)));
  }
  for (int o = 0; o < dom.num_outputs(); ++o)
    if (outs.test(static_cast<std::size_t>(o)))
      c.bits.set(static_cast<std::size_t>(dom.out_pos(o)));
  return c;
}

}  // namespace

std::pair<Cover, Cover> encoded_constraint_function(const Encoding& enc,
                                                    const ConstraintSet& cs) {
  const std::size_t nf = cs.faces().size();
  const std::size_t n = cs.num_symbols();
  const Domain dom = Domain::binary(enc.bits, static_cast<int>(nf));
  Cover on(dom), dc(dom);

  // ON cover: for a satisfied constraint, seed directly with its spanned
  // face as a single cube (a legal cover element by definition — the face
  // contains only member and don't-care codes), realizing the paper's
  // "satisfied constraint = one product term" semantics; for a violated
  // constraint, seed with the member minterms and let ESPRESSO do its best.
  // DC cover: don't-care member codes and unused code points.
  for (std::size_t i = 0; i < nf; ++i) {
    const FaceConstraint& f = cs.faces()[i];
    Bitset out(nf);
    out.set(i);
    if (face_satisfied(enc, cs, f)) {
      // Supercube of the member codes, asserting only this output.
      Cube span(dom);
      bool first = true;
      for (auto m : f.members) {
        const Cube point = code_minterm(dom, enc.codes[m], out);
        span = first ? point : cube_supercube(span, point);
        first = false;
      }
      on.add(span);
    } else {
      for (auto m : f.members)
        on.add(code_minterm(dom, enc.codes[m], out));
    }
    for (auto m : f.dontcares) dc.add(code_minterm(dom, enc.codes[m], out));
  }

  // Unused code points are DC for every constraint. Enumerate the code
  // space when small; otherwise complement the used-code cover, which is
  // exact at any code length and cheap for the few codes an encoding uses.
  Bitset all_outs(nf);
  all_outs.set_all();
  if (enc.bits <= 12) {
    Bitset used(std::size_t{1} << enc.bits);
    for (std::uint32_t s = 0; s < n; ++s) used.set(enc.codes[s]);
    for (std::uint64_t code = 0; code < (std::uint64_t{1} << enc.bits); ++code)
      if (!used.test(code)) dc.add(code_minterm(dom, code, all_outs));
  } else {
    Cover used_cover(dom);
    for (std::uint32_t s = 0; s < n; ++s)
      used_cover.add(code_minterm(dom, enc.codes[s], all_outs));
    for (const Cube& c : complement(used_cover)) {
      Cube d = c;
      for (int o = 0; o < dom.num_outputs(); ++o)
        d.bits.set(static_cast<std::size_t>(dom.out_pos(o)));
      dc.add(d);
    }
  }
  return {std::move(on), std::move(dc)};
}

Cover unused_code_dontcares(const Encoding& enc) {
  const Domain dom = Domain::binary(enc.bits, 1);
  Bitset out(1);
  out.set(0);
  Cover used(dom);
  for (const std::uint64_t code : enc.codes)
    used.add(code_minterm(dom, code, out));
  return complement(used);
}

FaceCost evaluate_face_cost(const Encoding& enc, const ConstraintSet& cs,
                            const FaceConstraint& f, const Cover& unused_dc,
                            bool fast) {
  const Domain& dom = unused_dc.domain();
  Bitset out(1);
  out.set(0);
  FaceCost cost;
  cost.satisfied = face_satisfied(enc, cs, f);
  Cover on(dom);
  if (cost.satisfied) {
    // A satisfied constraint is one product term by construction: the
    // spanned face contains only member and don't-care codes.
    Cube span(dom);
    bool first = true;
    for (auto m : f.members) {
      const Cube point = code_minterm(dom, enc.codes[m], out);
      span = first ? point : cube_supercube(span, point);
      first = false;
    }
    on.add(span);
  } else {
    for (auto m : f.members) on.add(code_minterm(dom, enc.codes[m], out));
  }
  Cover dc = unused_dc;
  for (auto m : f.dontcares) dc.add(code_minterm(dom, enc.codes[m], out));
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
