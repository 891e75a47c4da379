// Tests for the ESPRESSO-style minimizer: equivalence is always checked
// against the original ON-set modulo the DC-set (the correctness contract),
// plus size expectations on classical examples.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "logic/espresso.h"
#include "logic/urp.h"
#include "util/rng.h"

namespace encodesat {
namespace {

Cube bcube(const Domain& dom, const std::string& in, const std::string& out) {
  return cube_from_string(dom, in, out);
}

TEST(Espresso, EmptyCover) {
  const Domain dom = Domain::binary(2, 1);
  EXPECT_TRUE(espresso(Cover(dom), Cover(dom)).empty());
}

TEST(Espresso, MergesAdjacentMinterms) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(bcube(dom, "00", "1"));
  on.add(bcube(dom, "01", "1"));
  const Cover min = espresso(on, Cover(dom));
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, min[0]), "0- | 1");
}

TEST(Espresso, FullSpaceBecomesOneCube) {
  const Domain dom = Domain::binary(3, 1);
  Cover on(dom);
  for (int m = 0; m < 8; ++m) {
    std::string in = {char('0' + ((m >> 2) & 1)), char('0' + ((m >> 1) & 1)),
                      char('0' + (m & 1))};
    on.add(bcube(dom, in, "1"));
  }
  const Cover min = espresso(on, Cover(dom));
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_input_literals(dom, min[0]), 0);
}

TEST(Espresso, UsesDontCares) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom), dc(dom);
  on.add(bcube(dom, "11", "1"));
  dc.add(bcube(dom, "10", "1"));
  const Cover min = espresso(on, dc);
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, min[0]), "1- | 1");
}

TEST(Espresso, XorIsIrreducible) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(bcube(dom, "01", "1"));
  on.add(bcube(dom, "10", "1"));
  const Cover min = espresso(on, Cover(dom));
  EXPECT_EQ(min.size(), 2u);
  EXPECT_TRUE(covers_equivalent(min, on, Cover(dom)));
}

TEST(Espresso, MultiOutputSharing) {
  const Domain dom = Domain::binary(2, 2);
  Cover on(dom);
  on.add(bcube(dom, "11", "10"));
  on.add(bcube(dom, "11", "01"));
  const Cover min = espresso(on, Cover(dom));
  // The two outputs share the single cube 11|11.
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, min[0]), "11 | 11");
}

TEST(Espresso, ClassicTrim) {
  // f = a'b' + a'b + ab = a' + b (2 cubes), starting from minterms.
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(bcube(dom, "00", "1"));
  on.add(bcube(dom, "01", "1"));
  on.add(bcube(dom, "11", "1"));
  const Cover min = espresso(on, Cover(dom));
  EXPECT_EQ(min.size(), 2u);
  EXPECT_TRUE(covers_equivalent(min, on, Cover(dom)));
}

TEST(Espresso, ResultIsIrredundantAndPrime) {
  const Domain dom = Domain::binary(4, 1);
  Rng rng(42);
  Cover on(dom);
  for (int i = 0; i < 10; ++i) {
    std::string in;
    for (int v = 0; v < 4; ++v)
      in += "01-"[rng.next_below(3)];
    on.add(bcube(dom, in, "1"));
  }
  Cover dc(dom);
  const Cover min = espresso(on, dc);
  EXPECT_TRUE(covers_equivalent(min, on, dc));
  // Irredundant: removing any cube changes the function.
  for (std::size_t i = 0; i < min.size(); ++i) {
    Cover rest(dom);
    for (std::size_t j = 0; j < min.size(); ++j)
      if (j != i) rest.add(min[j]);
    EXPECT_FALSE(cover_contains_cube(rest, min[i]))
        << "cube " << i << " is redundant";
  }
  // Prime: no single position of any cube can be raised.
  const Cover off = complement(on);
  for (const Cube& c : min) {
    for (std::size_t b = 0; b < c.bits.size(); ++b) {
      if (c.bits.test(b)) continue;
      Cube up = c;
      up.bits.set(b);
      bool hits_off = false;
      for (const Cube& r : off)
        if (cubes_intersect(dom, up, r)) {
          hits_off = true;
          break;
        }
      EXPECT_TRUE(hits_off) << "cube is not prime at position " << b;
    }
  }
}

TEST(Espresso, MultiValuedVariableMinimization) {
  // One MV(4) variable; ON for values {0,1} and {2,3} separately given as
  // single-value cubes should merge to the full literal.
  const Domain dom({4}, 1);
  Cover on(dom);
  for (int v = 0; v < 4; ++v) {
    Cube c(dom);
    c.bits.set(static_cast<std::size_t>(v));
    c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
    on.add(c);
  }
  const Cover min = espresso(on, Cover(dom));
  ASSERT_EQ(min.size(), 1u);
}

TEST(Espresso, RejectsDontCaresOfAnotherSize) {
  // DC cubes are read by the ON cover's domain, so a DC cover of another
  // size must throw, on a one-output domain of binary inputs (the shape of
  // P-3's face costs) and on one with a three-valued input.
  const Domain small = Domain::binary(2, 1);
  Cover dc(small);
  dc.add(full_cube(small));
  for (const Domain& dom : {Domain::binary(4, 1), Domain({3, 2}, 1)}) {
    Cover on(dom);
    on.add(full_cube(dom));
    EXPECT_THROW(espresso(on, dc), std::invalid_argument)
        << dom.total_parts() << " positions";
  }
}

// The same cover over binary(n, 1) and over binary(n, 2) with the second
// output never asserted must minimize to the same cubes in the same order:
// the second output's raise is always blocked, and every other question
// has the same answer. Up to six inputs the first domain's questions are
// answered on one word and the second's by URP, so this compares the two.
TEST(Espresso, OneOutputMatchesPaddedTwoOutputDomain) {
  EspressoOptions single;
  single.single_pass = true;
  for (int n = 0; n <= 7; ++n) {
    const Domain dom = Domain::binary(n, 1);
    const Domain wide = Domain::binary(n, 2);
    // Each one-output cube with an unasserted second output appended.
    auto padded = [&](const Cover& c) {
      Cover out(wide);
      for (const Cube& k : c)
        out.add(cube_from_string(wide, cube_to_string(dom, k).substr(0, n),
                                 "10"));
      return out;
    };
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(n));
      Cover on(dom), dc(dom);
      const int cubes = 1 + static_cast<int>(rng.next_below(10));
      for (int i = 0; i < cubes; ++i) {
        std::string in;
        for (int v = 0; v < n; ++v) in += "01-"[rng.next_below(3)];
        (rng.next_bool(0.25) ? dc : on).add(cube_from_string(dom, in, "1"));
      }
      for (const EspressoOptions& opts : {EspressoOptions{}, single}) {
        EspressoStats narrow_stats, wide_stats;
        const Cover narrow = espresso(on, dc, opts, &narrow_stats);
        EXPECT_EQ(padded(narrow).to_string(),
                  espresso(padded(on), padded(dc), opts, &wide_stats)
                      .to_string())
            << "n=" << n << " seed=" << seed;
        EXPECT_EQ(narrow_stats.iterations, wide_stats.iterations);
      }
    }
  }
}

// Seeds from kOneOutputSeeds on draw 1-6 inputs and one output, the shape
// of P-3's face costs, up to a 64-minterm space at six inputs; the seeds
// below it keep their 3-5 inputs and 1-3 outputs.
constexpr int kOneOutputSeeds = 1000;

class EspressoRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EspressoRandomEquivalence, PreservesFunction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const bool one_output = GetParam() >= kOneOutputSeeds;
  const int ni = one_output ? 1 + static_cast<int>(rng.next_below(6))
                            : 3 + static_cast<int>(rng.next_below(3));
  const int no = one_output ? 1 : 1 + static_cast<int>(rng.next_below(3));
  const Domain dom = Domain::binary(ni, no);
  Cover on(dom), dc(dom);
  const int cubes = 3 + static_cast<int>(rng.next_below(12));
  for (int i = 0; i < cubes; ++i) {
    std::string in, out;
    for (int v = 0; v < ni; ++v) in += "01--"[rng.next_below(4)];
    for (int o = 0; o < no; ++o) out += "01"[rng.next_below(2)];
    if (out.find('1') == std::string::npos) out[0] = '1';
    if (rng.next_bool(0.2))
      dc.add(cube_from_string(dom, in, out));
    else
      on.add(cube_from_string(dom, in, out));
  }
  const Cover min = espresso(on, dc);
  EXPECT_TRUE(covers_equivalent(min, on, dc));
  EXPECT_LE(min.size(), on.size() == 0 ? 0 : on.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspressoRandomEquivalence,
                         ::testing::Range(0, 24));
INSTANTIATE_TEST_SUITE_P(OneOutputSeeds, EspressoRandomEquivalence,
                         ::testing::Range(kOneOutputSeeds,
                                          kOneOutputSeeds + 24));

}  // namespace
}  // namespace encodesat
