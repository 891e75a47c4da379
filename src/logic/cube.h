// Cubes in positional-cube notation over a Domain.
//
// A cube is one Bitset laid out per Domain: for each input variable the bits
// of the admitted values, then one bit per asserted output. The usual
// two-level operations (intersection, containment, cofactor, distance,
// single-cube complement) are provided as free functions parameterized by
// the Domain, so the Cube itself stays a cheap value type. The kernels
// (emptiness, intersection, distance, cofactor, complement, part tests and
// literal count) read a cube's words by the domain's layout and throw
// std::invalid_argument, in every build, on a cube whose size is not the
// domain's total_parts().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "logic/domain.h"
#include "util/bitset.h"

namespace encodesat {

struct Cube {
  Bitset bits;

  Cube() = default;
  explicit Cube(const Domain& dom)
      : bits(static_cast<std::size_t>(dom.total_parts())) {}

  bool operator==(const Cube& o) const { return bits == o.bits; }
  bool operator!=(const Cube& o) const { return bits != o.bits; }
  bool operator<(const Cube& o) const { return bits < o.bits; }
};

/// The universe cube: all input values admitted, all outputs asserted.
Cube full_cube(const Domain& dom);

/// True if some input part of c admits no value, or no output is asserted —
/// i.e. the cube denotes the empty set of (minterm, output) pairs.
bool cube_is_empty(const Domain& dom, const Cube& c);

/// True if every part of `inner` is a subset of the corresponding part of
/// `outer` (set containment of the denoted minterm/output pairs).
bool cube_contains(const Cube& outer, const Cube& inner);

/// Part-wise intersection; returns std::nullopt if the result is empty.
std::optional<Cube> cube_intersect(const Domain& dom, const Cube& a,
                                   const Cube& b);

/// True iff the intersection of a and b is non-empty.
bool cubes_intersect(const Domain& dom, const Cube& a, const Cube& b);

/// Number of parts (input variables or the output part) in which a and b
/// have an empty part-wise intersection. Distance 0 means the cubes
/// intersect; distance 1 enables consensus.
int cube_distance(const Domain& dom, const Cube& a, const Cube& b);

/// Cofactor of c with respect to cube p (Brayton et al.): defined only when
/// c and p intersect; each part becomes c_part | ~p_part.
std::optional<Cube> cube_cofactor(const Domain& dom, const Cube& c,
                                  const Cube& p);

/// Complement of a single cube as a list of cubes (DeMorgan sharp): one cube
/// per non-full part, with that part complemented and the rest full.
std::vector<Cube> cube_complement(const Domain& dom, const Cube& c);

/// Smallest cube containing both a and b (part-wise union).
Cube cube_supercube(const Cube& a, const Cube& b);

/// True if part `part` of c (Domain's part view: an input variable, or the
/// output part when part == dom.num_inputs()) admits no value.
bool cube_part_empty(const Domain& dom, const Cube& c, int part);

/// True if part `part` of c admits every value.
bool cube_part_full(const Domain& dom, const Cube& c, int part);

/// Number of input literals of c: one per input variable whose part is not
/// full (the standard SOP literal count for binary variables; for MV
/// variables a non-full part counts as one literal, matching ESPRESSO-MV).
int cube_input_literals(const Domain& dom, const Cube& c);

/// Render as espresso-style text: per binary var 0/1/-, per MV var the value
/// bitstring in brackets, then " | " and the output bits.
std::string cube_to_string(const Domain& dom, const Cube& c);

/// Builds a cube from espresso-style input text for binary domains, e.g.
/// "01-0" with output part "10". Throws std::invalid_argument on bad text.
Cube cube_from_string(const Domain& dom, const std::string& inputs,
                      const std::string& outputs);

}  // namespace encodesat
