// Tests for the constraint IR, the text parser, and round-tripping.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/constraints.h"

namespace encodesat {
namespace {

TEST(Parse, FaceWithDontCares) {
  const ConstraintSet cs = parse_constraints("face a b [c d] e");
  ASSERT_EQ(cs.faces().size(), 1u);
  const auto& f = cs.faces()[0];
  EXPECT_EQ(f.members.size(), 3u);
  EXPECT_EQ(f.dontcares.size(), 2u);
  EXPECT_EQ(cs.num_symbols(), 5u);
  EXPECT_EQ(cs.symbols().name(f.members[2]), "e");
  EXPECT_EQ(cs.symbols().name(f.dontcares[0]), "c");
}

TEST(Parse, AllConstraintKinds) {
  const ConstraintSet cs = parse_constraints(R"(
    # a comment
    face a b c
    dominance a b     # trailing comment
    disjunctive a b c
    extdisjunctive a : b c | d e
    distance2 a d
    nonface b c d
    symbol lonely
  )");
  EXPECT_EQ(cs.faces().size(), 1u);
  EXPECT_EQ(cs.dominances().size(), 1u);
  EXPECT_EQ(cs.disjunctives().size(), 1u);
  ASSERT_EQ(cs.extended_disjunctives().size(), 1u);
  EXPECT_EQ(cs.extended_disjunctives()[0].conjunctions.size(), 2u);
  EXPECT_EQ(cs.distance2s().size(), 1u);
  EXPECT_EQ(cs.nonfaces().size(), 1u);
  EXPECT_TRUE(cs.symbols().contains("lonely"));
}

TEST(Parse, Errors) {
  EXPECT_THROW(parse_constraints("face a"), std::runtime_error);
  EXPECT_THROW(parse_constraints("dominance a"), std::runtime_error);
  EXPECT_THROW(parse_constraints("dominance a a"), std::runtime_error);
  EXPECT_THROW(parse_constraints("disjunctive a b"), std::runtime_error);
  EXPECT_THROW(parse_constraints("extdisjunctive a b c"), std::runtime_error);
  EXPECT_THROW(parse_constraints("frobnicate a b"), std::runtime_error);
  EXPECT_THROW(parse_constraints("face a [b c"), std::runtime_error);
  EXPECT_THROW(parse_constraints("face a b] c"), std::runtime_error);
  EXPECT_THROW(parse_constraints("extdisjunctive a : b |"), std::runtime_error);
}

TEST(Parse, RejectsDegenerateInputs) {
  // Self-dominance a > a is vacuous/contradictory depending on reading.
  EXPECT_THROW(parse_constraints("dominance a a"), std::runtime_error);
  // Duplicate symbols within one face constraint, in either section or
  // across the member/don't-care split.
  EXPECT_THROW(parse_constraints("face a b a"), std::runtime_error);
  EXPECT_THROW(parse_constraints("face a b [c c]"), std::runtime_error);
  EXPECT_THROW(parse_constraints("face a b [a]"), std::runtime_error);
  // A disjunctive parent in its own RHS makes the constraint vacuous.
  EXPECT_THROW(parse_constraints("disjunctive a a b"), std::runtime_error);
  EXPECT_THROW(parse_constraints("disjunctive a b a"), std::runtime_error);
  // Empty extended-disjunctive conjunction.
  EXPECT_THROW(parse_constraints("extdisjunctive a : b |"),
               std::runtime_error);
  EXPECT_THROW(parse_constraints("extdisjunctive a : | b"),
               std::runtime_error);
  // The reported message names the duplicate.
  ParseError err;
  EXPECT_EQ(parse_constraints("face a b a", &err), std::nullopt);
  EXPECT_NE(err.to_string().find("duplicate symbol 'a'"), std::string::npos);
}

TEST(Parse, ToStringKeepsUnreferencedSymbols) {
  // Symbols no constraint references still shape every verdict (distinct
  // codes, face intrusion), so to_string must emit them for a faithful
  // round trip — this is what makes fuzz reproducer files replayable.
  const ConstraintSet cs = parse_constraints("face a b c\nsymbol zzz");
  const std::string text = cs.to_string();
  EXPECT_NE(text.find("symbol zzz"), std::string::npos);
  const ConstraintSet again = parse_constraints(text);
  EXPECT_EQ(again.num_symbols(), cs.num_symbols());
  EXPECT_EQ(again.to_string(), text);
}

TEST(Parse, RoundTripThroughToString) {
  const std::string text = R"(face a b [c ] e
dominance a b
disjunctive a b e
extdisjunctive a : b c | e f
distance2 a e
nonface b c e
)";
  const ConstraintSet cs = parse_constraints(text);
  const ConstraintSet again = parse_constraints(cs.to_string());
  EXPECT_EQ(cs.faces().size(), again.faces().size());
  EXPECT_EQ(cs.dominances().size(), again.dominances().size());
  EXPECT_EQ(cs.disjunctives().size(), again.disjunctives().size());
  EXPECT_EQ(cs.extended_disjunctives().size(),
            again.extended_disjunctives().size());
  EXPECT_EQ(cs.num_symbols(), again.num_symbols());
  EXPECT_EQ(cs.to_string(), again.to_string());
}

TEST(Parse, SymbolsInternedInOrderOfMention) {
  const ConstraintSet cs = parse_constraints("face x y\nface a x");
  EXPECT_EQ(cs.symbols().at("x"), 0u);
  EXPECT_EQ(cs.symbols().at("y"), 1u);
  EXPECT_EQ(cs.symbols().at("a"), 2u);
}

// Interning order a..h makes each symbol's id its letter's place.
ConstraintSet every_field_set() {
  return parse_constraints(
      "face a b [c d]\n"
      "dominance a e\n"
      "disjunctive e b c\n"
      "extdisjunctive f : a b | c e\n"
      "distance2 g a\n"
      "nonface b d g\n"
      "symbol h\n");
}

TEST(ConstraintSetStructure, VisitsEverySymbolFieldInDeclarationOrder) {
  const ConstraintSet cs = every_field_set();
  std::vector<std::uint32_t> seen;
  cs.for_each_symbol([&](std::uint32_t id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2, 3,     // face
                                              0, 4,           // dominance
                                              4, 1, 2,        // disjunctive
                                              5, 0, 1, 2, 4,  // extdisjunctive
                                              6, 0,           // distance2
                                              1, 3, 6}));     // nonface
}

TEST(ConstraintSetStructure, RelabeledMapsEveryFieldAndCopiesNoNames) {
  const ConstraintSet cs = every_field_set();
  const std::vector<std::uint32_t> reverse = {7, 6, 5, 4, 3, 2, 1, 0};
  ConstraintSet out = cs.relabeled(reverse);
  EXPECT_EQ(out.num_symbols(), 0u);
  std::vector<std::uint32_t> before, after;
  cs.for_each_symbol([&](std::uint32_t id) { before.push_back(reverse[id]); });
  out.for_each_symbol([&](std::uint32_t id) { after.push_back(id); });
  EXPECT_EQ(after, before);
  // Named in reverse, the relabeled set renders the same constraints.
  for (std::uint32_t id = 8; id-- > 0;)
    out.symbols().intern(cs.symbols().name(id));
  EXPECT_EQ(out.to_string(), cs.to_string());
}

TEST(ConstraintSetStructure, ExtensionAndOutputClasses) {
  EXPECT_FALSE(parse_constraints("face a b").has_extension_constraints());
  EXPECT_FALSE(parse_constraints("dominance a b").has_extension_constraints());
  EXPECT_TRUE(parse_constraints("distance2 a b").has_extension_constraints());
  EXPECT_TRUE(parse_constraints("nonface a b").has_extension_constraints());
  EXPECT_FALSE(parse_constraints("nonface a b").has_output_constraints());
}

TEST(ConstraintSetStructure, ConstraintsCompareFieldByField) {
  EXPECT_LT((FaceConstraint{{0, 1}, {3}}), (FaceConstraint{{0, 2}, {}}));
  EXPECT_LT((FaceConstraint{{0, 1}, {}}), (FaceConstraint{{0, 1}, {2}}));
  EXPECT_LT((DominanceConstraint{1, 5}), (DominanceConstraint{2, 0}));
  EXPECT_LT((DisjunctiveConstraint{1, {4, 5}}),
            (DisjunctiveConstraint{2, {0, 1}}));
  EXPECT_LT((ExtendedDisjunctiveConstraint{0, {{1, 2}, {3}}}),
            (ExtendedDisjunctiveConstraint{0, {{1, 3}}}));
  EXPECT_LT((Distance2Constraint{0, 7}), (Distance2Constraint{1, 2}));
  EXPECT_LT((NonFaceConstraint{{0, 1, 2}}), (NonFaceConstraint{{0, 2}}));
  EXPECT_EQ((Distance2Constraint{3, 4}), (Distance2Constraint{3, 4}));
}

TEST(Symbols, InternAndLookup) {
  SymbolTable t;
  EXPECT_EQ(t.intern("a"), 0u);
  EXPECT_EQ(t.intern("b"), 1u);
  EXPECT_EQ(t.intern("a"), 0u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(1), "b");
  EXPECT_THROW(t.at("zzz"), std::out_of_range);
}

TEST(IndexBitset, Builds) {
  const Bitset b = index_bitset(6, {1, 4});
  EXPECT_TRUE(b.test(1));
  EXPECT_TRUE(b.test(4));
  EXPECT_EQ(b.count(), 2u);
}

}  // namespace
}  // namespace encodesat
