// Small tests closing coverage gaps on public API surfaces.
#include <gtest/gtest.h>

#include "core/dichotomy.h"
#include "core/encoding.h"
#include "covering/unate.h"
#include "logic/espresso.h"
#include "logic/urp.h"

namespace encodesat {
namespace {

TEST(UnateApi, GreedyStandalone) {
  UnateCoverProblem p;
  p.num_columns = 4;
  Bitset r1(4), r2(4);
  r1.set(0);
  r1.set(3);
  r2.set(3);
  p.rows = {r1, r2};
  const auto sol = greedy_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{3}));
}

TEST(UnateApi, ZeroNodeBudgetFallsBackToGreedy) {
  UnateCoverProblem p;
  p.num_columns = 3;
  Bitset r(3);
  r.set(1);
  p.rows = {r};
  UnateCoverOptions o;
  o.max_nodes = 0;
  const auto sol = solve_unate_cover(p, o);
  ASSERT_TRUE(sol.feasible);
  EXPECT_FALSE(sol.optimal);  // no proof was attempted
  EXPECT_EQ(sol.cost, 1);
}

TEST(EspressoApi, NodcWrapper) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(cube_from_string(dom, "00", "1"));
  on.add(cube_from_string(dom, "01", "1"));
  EXPECT_EQ(espresso(on, Cover(dom)).size(), 1u);
}

TEST(CoverApi, ToStringListsCubes) {
  const Domain dom = Domain::binary(2, 1);
  Cover f(dom);
  f.add(cube_from_string(dom, "1-", "1"));
  EXPECT_EQ(f.to_string(), "1- | 1\n");
}

TEST(DichotomyApi, ToStringNames) {
  SymbolTable t;
  t.intern("x");
  t.intern("y");
  t.intern("z");
  const auto d = Dichotomy::make(3, {0, 2}, {1});
  EXPECT_EQ(d.to_string(t), "(x z; y)");
}

TEST(DichotomyApi, OrderingIsStrictWeak) {
  const auto a = Dichotomy::make(2, {0}, {1});
  const auto b = Dichotomy::make(2, {1}, {0});
  EXPECT_NE(a < b, b < a);
  EXPECT_FALSE(a < a);
}

TEST(EncodingApi, DeriveCodesEmptyColumns) {
  const Encoding e = derive_codes(3, {});
  EXPECT_EQ(e.bits, 0);
  EXPECT_EQ(e.codes, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(UrpApi, ContainsEmptyCubeTrivially) {
  const Domain dom = Domain::binary(2, 1);
  Cover f(dom);
  EXPECT_TRUE(cover_contains_cube(f, Cube(dom)));  // empty cube
  EXPECT_TRUE(cover_contains(universe_cover(dom), f));
}

}  // namespace
}  // namespace encodesat
