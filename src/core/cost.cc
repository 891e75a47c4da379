#include "core/cost.h"

#include <algorithm>
#include <bit>

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

// Up to kWordOracleMaxInputs bits, the minterm code_minterm builds for a
// code: its low `bits` bits.
std::uint64_t code_point(std::uint64_t code, int bits) {
  return code & ((std::uint64_t{1} << bits) - 1);
}

// A code's minterm as a bit of a point-set word.
std::uint64_t code_bit(std::uint64_t code, int bits) {
  return std::uint64_t{1} << code_point(code, bits);
}

// The used codes as a point-set word, up to kWordOracleMaxInputs bits.
std::uint64_t used_word(const Encoding& enc) {
  std::uint64_t used = 0;
  for (const std::uint64_t code : enc.codes) used |= code_bit(code, enc.bits);
  return used;
}

}  // namespace

Cover unused_code_dontcares(const Encoding& enc) {
  const Domain dom = Domain::binary(enc.bits, 1);
  if (enc.bits <= kWordOracleMaxInputs) {
    const std::uint64_t used = used_word(enc);
    Cover dc(dom);
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << enc.bits); ++m)
      if (((used >> m) & 1) == 0) dc.add(code_minterm(dom, m));
    return dc;
  }
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

FaceCost FaceCostMemo::cost(const Encoding& enc, const ConstraintSet& cs,
                            const FaceConstraint& f) {
  const bool word = enc.bits <= kWordOracleMaxInputs;
  if (word) {
    used_.assign(1, used_word(enc));
  } else {
    used_ = enc.codes;
    std::sort(used_.begin(), used_.end());
  }
  if (!word || f.members.size() > kMaxMembers)
    return evaluate_face_cost(enc, cs, f, unused_dc(enc), /*fast=*/true);

  static_assert(kMaxMembers * kWordOracleMaxInputs <= 54);
  static_assert(sizeof(Slot) == 32);
  static_assert(std::has_single_bit(kSlots));
  Key key;
  key.used = used_[0];
  for (const auto d : f.dontcares)
    key.dontcares |= code_bit(enc.codes[d], enc.bits);
  for (std::size_t i = 0; i < f.members.size(); ++i)
    key.face |= code_point(enc.codes[f.members[i]], enc.bits)
                << (i * kWordOracleMaxInputs);
  key.face |= std::uint64_t{f.members.size()} << 54 |
              std::uint64_t(enc.bits) << 58 | std::uint64_t{1} << 63;
  std::uint64_t h = 0;
  for (const std::uint64_t w : {key.used, key.dontcares, key.face}) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
  }
  // The slot is the hash's top bits: only they depend on every bit of the
  // last product's factors (its low bits miss `face`'s count and length).
  if (slots_.empty()) slots_.resize(kSlots);
  Slot& slot = slots_[h >> (64 - std::countr_zero(kSlots))];
  if (slot.key == key) return {slot.satisfied, slot.cubes, slot.literals};

  const FaceCost c =
      evaluate_face_cost(enc, cs, f, unused_dc(enc), /*fast=*/true);
  slot = {key, static_cast<std::uint16_t>(c.cubes),
          static_cast<std::uint16_t>(c.literals), c.satisfied};
  return c;
}

// Reads the used-code set from used_, which cost() has just filled.
const Cover& FaceCostMemo::unused_dc(const Encoding& enc) {
  if (enc.bits != dc_bits_ || used_ != dc_used_) {
    dc_ = unused_code_dontcares(enc);
    dc_bits_ = enc.bits;
    dc_used_ = used_;
  }
  return dc_;
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
