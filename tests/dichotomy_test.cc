// Tests for encoding-dichotomies (Definitions 3.1-3.6) and the
// output-constraint validity / raising rules (Figures 5-6).
#include <gtest/gtest.h>

#include "core/constraints.h"
#include "core/dichotomy.h"
#include "core/generate.h"
#include "core/output_rules.h"

namespace encodesat {
namespace {

Dichotomy d(std::size_t n, std::vector<std::uint32_t> l,
            std::vector<std::uint32_t> r) {
  return Dichotomy::make(n, l, r);
}

TEST(Dichotomy, CompatibilityIsOrientationSensitive) {
  // Definition 3.2: left of one must not clash with right of the other.
  const auto a = d(4, {0, 1}, {2, 3});
  const auto b = d(4, {0}, {3});
  const auto c = d(4, {2}, {0});
  EXPECT_TRUE(a.compatible(b));
  EXPECT_TRUE(b.compatible(a));
  EXPECT_FALSE(a.compatible(c));
  // A dichotomy is incompatible with its own flip.
  EXPECT_FALSE(a.compatible(a.flipped()));
  // ... but compatible with itself.
  EXPECT_TRUE(a.compatible(a));
}

TEST(Dichotomy, UnionMergesBlocks) {
  const auto a = d(5, {0}, {2});
  const auto b = d(5, {1}, {3});
  const auto u = a.union_with(b);
  EXPECT_TRUE(u.in_left(0));
  EXPECT_TRUE(u.in_left(1));
  EXPECT_TRUE(u.in_right(2));
  EXPECT_TRUE(u.in_right(3));
  EXPECT_FALSE(u.places(4));
}

TEST(Dichotomy, CoversAllowsSwappedOrientation) {
  // Definition 3.4 example: (s0; s1 s2) is covered by (s0 s3; s1 s2 s4) and
  // by (s1 s2 s3; s0), but not by (s0 s1; s2).
  const auto target = d(5, {0}, {1, 2});
  EXPECT_TRUE(d(5, {0, 3}, {1, 2, 4}).covers(target));
  EXPECT_TRUE(d(5, {1, 2, 3}, {0}).covers(target));
  EXPECT_FALSE(d(5, {0, 1}, {2}).covers(target));
}

TEST(Dichotomy, DedupeKeepsFirst) {
  std::vector<Dichotomy> v = {d(3, {0}, {1}), d(3, {0}, {1}), d(3, {1}, {0})};
  dedupe_dichotomies(v);
  EXPECT_EQ(v.size(), 2u);
}

TEST(OutputRules, DominanceValidity) {
  // Definition 3.6 example: (s0; s1 s2) violates s0 > s1.
  ConstraintSet cs;
  cs.symbols().intern("s0");
  cs.symbols().intern("s1");
  cs.symbols().intern("s2");
  cs.add_dominance("s0", "s1");
  EXPECT_FALSE(dichotomy_valid(d(3, {0}, {1, 2}), cs));
  EXPECT_TRUE(dichotomy_valid(d(3, {0, 1}, {2}), cs));
  EXPECT_TRUE(dichotomy_valid(d(3, {1}, {0}), cs));
}

TEST(OutputRules, DisjunctiveValidity) {
  // Figure 8: (s0 s1; s3) conflicts with s0 = s1 OR s3 (parent at 0 with a
  // child at 1); (s0 s1; s2) conflicts with s1 > s2 only, not with the
  // disjunctive.
  ConstraintSet cs;
  for (const char* s : {"s0", "s1", "s2", "s3"}) cs.symbols().intern(s);
  cs.add_disjunctive("s0", {"s1", "s3"});
  EXPECT_FALSE(dichotomy_valid(d(4, {0, 1}, {3}), cs));
  EXPECT_TRUE(dichotomy_valid(d(4, {0, 1}, {2}), cs));
  // Parent at 1 with every child at 0 is dead.
  EXPECT_FALSE(dichotomy_valid(d(4, {1, 3}, {0}), cs));
  // Parent at 1 with one child unplaced is still extendable.
  EXPECT_TRUE(dichotomy_valid(d(4, {1}, {0}), cs));
}

TEST(OutputRules, ExtendedDisjunctiveValidity) {
  // (b AND c) OR (d AND e) >= a: a at 1 with both conjunctions killed is
  // invalid.
  ConstraintSet cs;
  for (const char* s : {"a", "b", "c", "d", "e"}) cs.symbols().intern(s);
  cs.add_extended_disjunctive("a", {{"b", "c"}, {"d", "e"}});
  EXPECT_FALSE(dichotomy_valid(d(5, {1, 3}, {0}), cs));  // b,d at 0; a at 1
  EXPECT_TRUE(dichotomy_valid(d(5, {1}, {0}), cs));      // (d,e) still alive
  EXPECT_TRUE(dichotomy_valid(d(5, {1, 3}, {2}), cs));   // a not at 1
}

TEST(OutputRules, RaiseDominance) {
  // Figure 4 narrative: raising (s1; s2 s5) under s0>s2, s1>s3, s4>s5
  // yields (s1 s3; s0 s2 s4 s5).
  ConstraintSet cs;
  for (const char* s : {"s0", "s1", "s2", "s3", "s4", "s5"})
    cs.symbols().intern(s);
  cs.add_dominance("s0", "s2");
  cs.add_dominance("s1", "s3");
  cs.add_dominance("s4", "s5");
  Dichotomy x = d(6, {1}, {2, 5});
  ASSERT_TRUE(raise_dichotomy(x, cs));
  EXPECT_EQ(x, d(6, {1, 3}, {0, 2, 4, 5}));
}

TEST(OutputRules, RaiseDisjunctiveAllChildrenLeft) {
  ConstraintSet cs;
  for (const char* s : {"p", "c1", "c2"}) cs.symbols().intern(s);
  cs.add_disjunctive("p", {"c1", "c2"});
  Dichotomy x = d(3, {1, 2}, {});
  ASSERT_TRUE(raise_dichotomy(x, cs));
  EXPECT_TRUE(x.in_left(0));  // p forced to 0
}

TEST(OutputRules, RaiseDisjunctiveLastFreeChild) {
  ConstraintSet cs;
  for (const char* s : {"p", "c1", "c2"}) cs.symbols().intern(s);
  cs.add_disjunctive("p", {"c1", "c2"});
  Dichotomy x = d(3, {1}, {0});  // p at 1, c1 at 0
  ASSERT_TRUE(raise_dichotomy(x, cs));
  EXPECT_TRUE(x.in_right(2));  // c2 forced to 1
}

TEST(OutputRules, RaiseDisjunctiveChildRightForcesParent) {
  ConstraintSet cs;
  for (const char* s : {"p", "c1", "c2"}) cs.symbols().intern(s);
  cs.add_disjunctive("p", {"c1", "c2"});
  Dichotomy x = d(3, {}, {1});  // c1 at 1
  ASSERT_TRUE(raise_dichotomy(x, cs));
  EXPECT_TRUE(x.in_right(0));  // p = OR(...) >= c1
}

TEST(OutputRules, RaiseParentLeftPullsChildren) {
  ConstraintSet cs;
  for (const char* s : {"p", "c1", "c2"}) cs.symbols().intern(s);
  cs.add_disjunctive("p", {"c1", "c2"});
  Dichotomy x = d(3, {0}, {});
  ASSERT_TRUE(raise_dichotomy(x, cs));
  EXPECT_TRUE(x.in_left(1));
  EXPECT_TRUE(x.in_left(2));
}

TEST(OutputRules, RaiseDetectsContradiction) {
  ConstraintSet cs;
  for (const char* s : {"a", "b", "c"}) cs.symbols().intern(s);
  cs.add_dominance("a", "b");
  cs.add_dominance("b", "c");
  // a at 0 forces b to 0 forces c to 0, but c is already at 1.
  Dichotomy x = d(3, {0}, {2});
  EXPECT_FALSE(raise_dichotomy(x, cs));
}

TEST(OutputRules, RaiseAndValidateKeepsOnlySurvivors) {
  ConstraintSet cs;
  for (const char* s : {"a", "b", "c"}) cs.symbols().intern(s);
  cs.add_dominance("a", "b");
  cs.add_dominance("b", "c");
  // Invalid before raising (b at 0, c at 1): refused and left as it was.
  Dichotomy invalid = d(3, {1}, {2});
  EXPECT_FALSE(raise_and_validate(invalid, cs));
  EXPECT_EQ(invalid, d(3, {1}, {2}));
  // Valid, but raising a at 0 pulls c to 0 against its 1.
  Dichotomy contradiction = d(3, {0}, {2});
  EXPECT_FALSE(raise_and_validate(contradiction, cs));
  // c at 1 pulls b and then a to 1, and the raised dichotomy is valid.
  Dichotomy kept = d(3, {}, {2});
  EXPECT_TRUE(raise_and_validate(kept, cs));
  EXPECT_EQ(kept, d(3, {}, {0, 1, 2}));
}

TEST(OutputRules, RaiseExtendedDisjunctive) {
  ConstraintSet cs;
  for (const char* s : {"a", "b", "c", "d", "e"}) cs.symbols().intern(s);
  cs.add_extended_disjunctive("a", {{"b", "c"}, {"d", "e"}});
  // Both conjunctions killed -> parent forced to 0.
  Dichotomy x = d(5, {1, 3}, {});
  ASSERT_TRUE(raise_dichotomy(x, cs));
  EXPECT_TRUE(x.in_left(0));
  // Parent at 1, first conjunction killed -> all of (d, e) forced to 1.
  Dichotomy y = d(5, {1}, {0});
  ASSERT_TRUE(raise_dichotomy(y, cs));
  EXPECT_TRUE(y.in_right(3));
  EXPECT_TRUE(y.in_right(4));
}

TEST(Generate, FaceConstraintDichotomies) {
  // Face (a, b) among 4 symbols: two orientations for each of c, d.
  ConstraintSet cs;
  cs.add_face({"a", "b"});
  cs.symbols().intern("c");
  cs.symbols().intern("d");
  const auto init = generate_initial_dichotomies(cs);
  int face_rows = 0;
  for (const auto& i : init)
    if (i.face_index == 0) ++face_rows;
  EXPECT_EQ(face_rows, 4);  // 2 * (n - l) = 2 * 2
}

TEST(Generate, UniquenessOnlyWhenNotSeparated) {
  ConstraintSet cs;
  cs.add_face({"a", "b"});
  cs.symbols().intern("c");
  const auto init = generate_initial_dichotomies(cs);
  // Pairs (a,c) and (b,c) are separated by the face dichotomies; (a,b) is
  // not, so exactly one uniqueness pair (both orientations) is added.
  int uniq = 0;
  for (const auto& i : init)
    if (i.face_index < 0) ++uniq;
  EXPECT_EQ(uniq, 2);
}

TEST(Generate, DontCareSymbolsProduceNoDichotomy) {
  // Section 8.1: (s0 s1 s3 [s5]) simply omits the dichotomies against s5.
  ConstraintSet cs;
  cs.add_face({"s0", "s1", "s3"}, {"s5"});
  cs.symbols().intern("s2");
  cs.symbols().intern("s4");
  const auto init = generate_initial_dichotomies(cs);
  for (const auto& i : init) {
    if (i.face_index != 0) continue;
    EXPECT_FALSE(i.dichotomy.places(cs.symbols().at("s5")));
  }
}

TEST(Generate, NoConstraintsAllUniquenessPairs) {
  ConstraintSet cs;
  for (const char* s : {"a", "b", "c"}) cs.symbols().intern(s);
  const auto init = generate_initial_dichotomies(cs);
  EXPECT_EQ(init.size(), 6u);  // both orientations of 3 pairs
}

}  // namespace
}  // namespace encodesat
