// The mask-based cube kernels (logic/cube.cc) against per-bit reference
// implementations written here from the positional-cube definitions, on
// random domains on both sides of the one-word, two-word and inline-word
// limits, plus the Domain corner cases: one-valued and empty parts.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "logic/cover.h"
#include "logic/cube.h"
#include "logic/domain.h"
#include "logic/urp.h"
#include "util/rng.h"

namespace encodesat {
namespace {

// --- Per-bit reference: parts are (offset, length) ranges of positions. ---

struct RefPart {
  int off = 0;
  int len = 0;
};

std::vector<RefPart> reference_parts(const Domain& dom) {
  std::vector<RefPart> parts;
  for (int v = 0; v < dom.num_inputs(); ++v)
    parts.push_back({dom.input_offset(v), dom.input_size(v)});
  parts.push_back({dom.output_offset(), dom.num_outputs()});
  return parts;
}

bool ref_bit(const Bitset& b, int i) {
  return b.test(static_cast<std::size_t>(i));
}

bool ref_part_empty(const Bitset& b, const RefPart& p) {
  for (int i = 0; i < p.len; ++i)
    if (ref_bit(b, p.off + i)) return false;
  return true;
}

bool ref_part_full(const Bitset& b, const RefPart& p) {
  for (int i = 0; i < p.len; ++i)
    if (!ref_bit(b, p.off + i)) return false;
  return true;
}

Bitset ref_meet(const Bitset& a, const Bitset& b) {
  Bitset m(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.test(i) && b.test(i)) m.set(i);
  return m;
}

bool ref_is_empty(const Domain& dom, const Bitset& b) {
  for (const RefPart& p : reference_parts(dom))
    if (ref_part_empty(b, p)) return true;
  return false;
}

int ref_distance(const Domain& dom, const Bitset& a, const Bitset& b) {
  const Bitset m = ref_meet(a, b);
  int d = 0;
  for (const RefPart& p : reference_parts(dom))
    if (ref_part_empty(m, p)) ++d;
  return d;
}

std::optional<Bitset> ref_cofactor(const Domain& dom, const Bitset& c,
                                   const Bitset& p) {
  if (ref_is_empty(dom, ref_meet(c, p))) return std::nullopt;
  Bitset r(c.size());
  for (std::size_t i = 0; i < c.size(); ++i)
    if (c.test(i) || !p.test(i)) r.set(i);
  return r;
}

std::vector<Bitset> ref_complement(const Domain& dom, const Bitset& c) {
  std::vector<Bitset> out;
  for (const RefPart& p : reference_parts(dom)) {
    if (ref_part_full(c, p)) continue;
    Bitset r(c.size());
    r.set_all();
    for (int i = 0; i < p.len; ++i)
      r.assign(static_cast<std::size_t>(p.off + i), !ref_bit(c, p.off + i));
    out.push_back(r);
  }
  return out;
}

// --- Random domains and cubes. ---

// A domain of exactly `width` positions. Parts are 0 to 150 values wide
// (zero-position parts only when allow_empty; a part of over 128 values
// spans three words), and the domain is redrawn until some part straddles
// a word boundary, when the width allows one.
Domain random_domain(int width, bool allow_empty, Rng& rng) {
  while (true) {
    const int outputs = static_cast<int>(rng.next_in(allow_empty ? 0 : 1, 5));
    std::vector<int> sizes;
    int left = width - outputs;
    while (left > 0) {
      int s = 0;
      switch (rng.next_below(6)) {
        case 0: s = allow_empty ? 0 : 1; break;
        case 1: s = 1; break;
        case 2: s = 2; break;
        case 3: s = static_cast<int>(rng.next_in(41, 150)); break;
        default: s = static_cast<int>(rng.next_in(3, 40)); break;
      }
      s = std::min(s, left);
      sizes.push_back(s);
      left -= s;
    }
    const Domain dom(sizes, outputs);
    if (width <= 64) return dom;
    for (int p = 0; p < dom.num_parts(); ++p) {
      const int off = dom.part_offset(p), len = dom.part_size(p);
      if (len > 1 && off / 64 != (off + len - 1) / 64) return dom;
    }
  }
}

// Each part is full, empty, one value, all values but one, or a random
// subset. The one-value and all-but-one parts put the deciding bit in any
// word of a wide part, not just its first or last.
Cube random_cube(const Domain& dom, Rng& rng) {
  Cube c(dom);
  for (const RefPart& p : reference_parts(dom)) {
    const std::uint64_t kind = rng.next_below(10);
    const int pick = p.len > 0 ? static_cast<int>(rng.next_below(
                                     static_cast<std::uint64_t>(p.len)))
                               : 0;
    for (int i = 0; i < p.len; ++i) {
      bool on = rng.next_bool();
      if (kind < 2) on = true;
      else if (kind < 3) on = false;
      else if (kind < 5) on = i == pick;
      else if (kind < 7) on = i != pick;
      c.bits.assign(static_cast<std::size_t>(p.off + i), on);
    }
  }
  return c;
}

TEST(CubeKernels, MatchPerBitReference) {
  Rng rng(2026);
  for (const int width : {63, 64, 65, 127, 128, 129, 300}) {
    for (const bool allow_empty : {false, true}) {
      for (int d = 0; d < 3; ++d) {
        const Domain dom = random_domain(width, allow_empty, rng);
        SCOPED_TRACE("width " + std::to_string(width) + " domain " +
                     std::to_string(d) +
                     (allow_empty ? " with empty parts" : ""));
        ASSERT_EQ(dom.total_parts(), width);
        const std::vector<RefPart> parts = reference_parts(dom);
        bool has_empty_part = false;
        for (const RefPart& p : parts) has_empty_part |= p.len == 0;
        EXPECT_EQ(dom.one_word(), width <= 64 && !has_empty_part);
        std::vector<Cube> cubes;
        for (int i = 0; i < 24; ++i) cubes.push_back(random_cube(dom, rng));
        cubes.push_back(full_cube(dom));
        cubes.push_back(Cube(dom));
        for (const Cube& a : cubes) {
          EXPECT_EQ(cube_is_empty(dom, a), ref_is_empty(dom, a.bits));
          for (int p = 0; p < dom.num_parts(); ++p) {
            const RefPart& rp = parts[static_cast<std::size_t>(p)];
            EXPECT_EQ(cube_part_empty(dom, a, p), ref_part_empty(a.bits, rp));
            EXPECT_EQ(cube_part_full(dom, a, p), ref_part_full(a.bits, rp));
          }
          const std::vector<Cube> comp = cube_complement(dom, a);
          const std::vector<Bitset> ref_comp = ref_complement(dom, a.bits);
          ASSERT_EQ(comp.size(), ref_comp.size());
          for (std::size_t i = 0; i < comp.size(); ++i)
            EXPECT_EQ(comp[i].bits, ref_comp[i]);
          for (const Cube& b : cubes) {
            const Bitset meet = ref_meet(a.bits, b.bits);
            const bool meets = !ref_is_empty(dom, meet);
            EXPECT_EQ(cubes_intersect(dom, a, b), meets);
            const std::optional<Cube> r = cube_intersect(dom, a, b);
            ASSERT_EQ(r.has_value(), meets);
            if (r) {
              EXPECT_EQ(r->bits, meet);
            }
            EXPECT_EQ(cube_distance(dom, a, b),
                      ref_distance(dom, a.bits, b.bits));
            const std::optional<Cube> cof = cube_cofactor(dom, a, b);
            const std::optional<Bitset> ref_cof =
                ref_cofactor(dom, a.bits, b.bits);
            ASSERT_EQ(cof.has_value(), ref_cof.has_value());
            if (cof) {
              EXPECT_EQ(cof->bits, *ref_cof);
            }
          }
        }
      }
    }
  }
}

TEST(CubeKernels, RejectCubeOfAnotherSize) {
  // One size each side of the one-word limit; a cube one position short
  // or long would make the word kernels read out of range.
  for (const Domain& dom : {Domain({2, 3}, 4), Domain({40, 30}, 2)}) {
    const Cube ok = full_cube(dom);
    for (const int delta : {-1, 1}) {
      Cube bad;
      bad.bits = Bitset(static_cast<std::size_t>(dom.total_parts() + delta));
      bad.bits.set_all();
      EXPECT_THROW(cube_is_empty(dom, bad), std::invalid_argument);
      EXPECT_THROW(cubes_intersect(dom, ok, bad), std::invalid_argument);
      EXPECT_THROW(cubes_intersect(dom, bad, ok), std::invalid_argument);
      EXPECT_THROW(cube_intersect(dom, bad, ok), std::invalid_argument);
      EXPECT_THROW(cube_distance(dom, ok, bad), std::invalid_argument);
      EXPECT_THROW(cube_distance(dom, bad, ok), std::invalid_argument);
      EXPECT_THROW(cube_cofactor(dom, ok, bad), std::invalid_argument);
      EXPECT_THROW(cube_cofactor(dom, bad, ok), std::invalid_argument);
      EXPECT_THROW(cube_complement(dom, bad), std::invalid_argument);
      EXPECT_THROW(cube_part_empty(dom, bad, 0), std::invalid_argument);
      EXPECT_THROW(cube_part_full(dom, bad, 0), std::invalid_argument);
      EXPECT_THROW(cube_input_literals(dom, bad), std::invalid_argument);
    }
  }
}

TEST(Domain, OneValuedPartConstructs) {
  // The FSM front end's present-state variable of a one-state machine.
  const Domain dom({2, 1}, 2);
  EXPECT_EQ(dom.num_parts(), 3);
  EXPECT_EQ(dom.total_parts(), 5);
  EXPECT_TRUE(dom.one_word());
  const Cube full = full_cube(dom);
  EXPECT_FALSE(cube_is_empty(dom, full));
  EXPECT_TRUE(cube_part_full(dom, full, 1));
  Cube c = full;
  c.bits.reset(static_cast<std::size_t>(dom.pos(1, 0)));
  EXPECT_TRUE(cube_is_empty(dom, c));
  EXPECT_EQ(cube_complement(dom, full).size(), 0u);
  EXPECT_TRUE(is_tautology(universe_cover(dom)));
}

TEST(Domain, EmptyPartMakesEveryCubeEmpty) {
  // A zero-state machine's present-state variable, and a domain with no
  // outputs.
  for (const Domain& dom : {Domain({2, 0}, 3), Domain({2, 2}, 0), Domain()}) {
    EXPECT_FALSE(dom.one_word());
    const Cube full = full_cube(dom);
    EXPECT_TRUE(cube_is_empty(dom, full));
    EXPECT_FALSE(cubes_intersect(dom, full, full));
    EXPECT_FALSE(cube_intersect(dom, full, full).has_value());
    EXPECT_FALSE(cube_cofactor(dom, full, full).has_value());
    // A part with no positions is vacuously full and empty at once.
    const int empty_part = dom.num_inputs() == 2 && dom.input_size(1) == 0
                               ? 1
                               : dom.num_inputs();
    EXPECT_TRUE(cube_part_empty(dom, full, empty_part));
    EXPECT_TRUE(cube_part_full(dom, full, empty_part));
    EXPECT_TRUE(cube_complement(dom, full).empty());
    Cover cover(dom);
    cover.add(full);
    EXPECT_TRUE(cover.empty());
  }
  EXPECT_EQ(Domain(), Domain({}, 0));
}

TEST(Domain, RejectsNegativeSizes) {
  EXPECT_THROW(Domain({2, -1}, 1), std::invalid_argument);
  EXPECT_THROW(Domain({2}, -1), std::invalid_argument);
  EXPECT_THROW(Domain::binary(2, -3), std::invalid_argument);
}

}  // namespace
}  // namespace encodesat
