// Additional property sweeps: chain-constraint search, URP laws and the
// cover algebra built on URP complement and containment.
#include <gtest/gtest.h>

#include "core/bounded.h"
#include "core/chains.h"
#include "core/verify.h"
#include "logic/urp.h"
#include "util/rng.h"

namespace encodesat {
namespace {

class ChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainSweep, SolutionsVerifyAndChainsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 83 + 19);
  ConstraintSet cs;
  const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng.next_below(4));
  for (std::uint32_t i = 0; i < n; ++i)
    cs.symbols().intern("s" + std::to_string(i));
  // One random chain over a prefix of the symbols, plus a random face.
  ChainConstraint chain;
  const std::uint32_t len = 2 + static_cast<std::uint32_t>(rng.next_below(n - 2));
  for (std::uint32_t i = 0; i < len; ++i) chain.sequence.push_back(i);
  std::vector<std::uint32_t> members;
  for (std::uint32_t s = 0; s < n; ++s)
    if (rng.next_bool(0.4)) members.push_back(s);
  if (members.size() >= 2 && members.size() < n)
    cs.add_face_ids(std::move(members));

  const int bits = minimum_code_length(n) + (rng.next_bool(0.5) ? 1 : 0);
  const auto res = encode_with_chains(cs, {chain}, bits);
  if (res.status != ChainEncodeResult::Status::kEncoded) return;
  EXPECT_TRUE(chains_satisfied(res.encoding, {chain})) << cs.to_string();
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty()) << cs.to_string();
  EXPECT_EQ(res.encoding.bits, bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainSweep, ::testing::Range(0, 20));

class UrpLaws : public ::testing::TestWithParam<int> {};

// Cover-level oracles on the URP primitives, local to these tests.

// Same function: each cover contains the other.
bool covers_equal(const Cover& a, const Cover& b) {
  return cover_contains(a, b) && cover_contains(b, a);
}

// Cofactor with respect to input variable `var` = `value`.
Cover cover_cofactor_var(const Cover& f, int var, int value) {
  const Domain& dom = f.domain();
  Cube lit = full_cube(dom);
  for (int j = 0; j < dom.input_size(var); ++j)
    if (j != value) lit.bits.reset(static_cast<std::size_t>(dom.pos(var, j)));
  return cover_cofactor(f, lit);
}

// Pairwise cube intersection: the AND of the two functions.
Cover cover_intersect(const Cover& a, const Cover& b) {
  Cover out(a.domain());
  for (const Cube& x : a)
    for (const Cube& y : b)
      if (auto meet = cube_intersect(a.domain(), x, y))
        out.add(std::move(*meet));
  return out;
}

Cover random_cover(Rng& rng, const Domain& dom, int cubes) {
  Cover f(dom);
  for (int i = 0; i < cubes; ++i) {
    std::string in, out;
    for (int v = 0; v < dom.num_inputs(); ++v) in += "01--"[rng.next_below(4)];
    for (int o = 0; o < dom.num_outputs(); ++o) out += "01"[rng.next_below(2)];
    if (out.find('1') == std::string::npos) out[0] = '1';
    f.add(cube_from_string(dom, in, out));
  }
  return f;
}

TEST_P(UrpLaws, ShannonExpansionLaws) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 59 + 23);
  const Domain dom = Domain::binary(3 + static_cast<int>(rng.next_below(2)), 1);
  const Cover f = random_cover(rng, dom, 5);
  const int var = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(dom.num_inputs())));

  // Tautology iff both cofactors are tautologies.
  const Cover f0 = cover_cofactor_var(f, var, 0);
  const Cover f1 = cover_cofactor_var(f, var, 1);
  EXPECT_EQ(is_tautology(f), is_tautology(f0) && is_tautology(f1));

  // f == x'·f_x' + x·f_x (rebuild via intersection with the literals).
  Cube lit0 = full_cube(dom), lit1 = full_cube(dom);
  lit0.bits.reset(static_cast<std::size_t>(dom.pos(var, 1)));
  lit1.bits.reset(static_cast<std::size_t>(dom.pos(var, 0)));
  Cover rebuilt(dom);
  for (const Cube& c : f0)
    if (auto m = cube_intersect(dom, c, lit0)) rebuilt.add(std::move(*m));
  for (const Cube& c : f1)
    if (auto m = cube_intersect(dom, c, lit1)) rebuilt.add(std::move(*m));
  EXPECT_TRUE(covers_equal(rebuilt, f));

  // Double complement is identity; f and its complement partition space.
  const Cover comp = complement(f);
  EXPECT_TRUE(covers_equal(complement(comp), f));
  Cover all = f;
  all.add_all(comp);
  EXPECT_TRUE(is_tautology(all) || (f.empty() && is_tautology(comp)));
  EXPECT_TRUE(cover_intersect(f, comp).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrpLaws, ::testing::Range(0, 20));

TEST(CoverOps, CofactorVar) {
  const Domain dom = Domain::binary(2, 1);
  Cover f(dom);
  f.add(cube_from_string(dom, "10", "1"));
  f.add(cube_from_string(dom, "0-", "1"));
  // Cofactor on x0 = 1 keeps {10} (as -0) and drops {0-}.
  const Cover cf = cover_cofactor_var(f, 0, 1);
  ASSERT_EQ(cf.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, cf[0]), "-0 | 1");
}

TEST(CoverOps, SubsetAndEquality) {
  const Domain dom = Domain::binary(2, 1);
  Cover a(dom), b(dom);
  a.add(cube_from_string(dom, "11", "1"));
  b.add(cube_from_string(dom, "1-", "1"));
  EXPECT_TRUE(cover_contains(b, a));
  EXPECT_FALSE(cover_contains(a, b));
  EXPECT_FALSE(covers_equal(a, b));
  EXPECT_TRUE(covers_equal(b, b));
}

class CoverOpsAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(CoverOpsAlgebra, DeMorganAndPartition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const Domain dom = Domain::binary(3 + static_cast<int>(rng.next_below(2)),
                                    1 + static_cast<int>(rng.next_below(2)));
  const Cover a = random_cover(rng, dom, 4);
  const Cover b = random_cover(rng, dom, 4);

  // a = (a ∩ b) ∪ (a ∩ b'), and the second part misses b.
  Cover parts = cover_intersect(a, b);
  const Cover diff = cover_intersect(a, complement(b));
  parts.add_all(diff);
  EXPECT_TRUE(covers_equal(parts, a));
  for (const Cube& x : diff) EXPECT_FALSE(cover_contains_cube(b, x));

  // complement(a ∪ b) == complement(a) ∩ complement(b).
  Cover both = a;
  both.add_all(b);
  EXPECT_TRUE(covers_equal(complement(both),
                           cover_intersect(complement(a), complement(b))));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverOpsAlgebra, ::testing::Range(0, 15));

}  // namespace
}  // namespace encodesat
