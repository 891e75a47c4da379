// Tests for chain constraints (Section 8.4) — the class the paper leaves
// open for dichotomy methods, solved here by pruned backtracking.
#include <gtest/gtest.h>

#include "core/chains.h"
#include "core/verify.h"

namespace encodesat {
namespace {

TEST(Chains, Section84Example) {
  // Faces (b,c), (a,b) and the chain (d - b - c - a). The paper's witness:
  // a = 00, b = 10, c = 11, d = 01 (the chain wraps 11 -> 00).
  ConstraintSet cs = parse_constraints("face b c\nface a b\nsymbol d");
  ChainConstraint chain;
  for (const char* s : {"d", "b", "c", "a"})
    chain.sequence.push_back(cs.symbols().at(s));
  const auto res = encode_with_chains(cs, {chain}, 2);
  ASSERT_EQ(res.status, ChainEncodeResult::Status::kEncoded);
  EXPECT_TRUE(chains_satisfied(res.encoding, {chain}));
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
}

TEST(Chains, LongChainGetsConsecutiveCodes) {
  // The paper's 9-state chain (a - b - ... - i) in 4 bits.
  ConstraintSet cs;
  ChainConstraint chain;
  for (char c = 'a'; c <= 'i'; ++c)
    chain.sequence.push_back(cs.symbols().intern(std::string(1, c)));
  const auto res = encode_with_chains(cs, {chain}, 4);
  ASSERT_EQ(res.status, ChainEncodeResult::Status::kEncoded);
  EXPECT_TRUE(chains_satisfied(res.encoding, {chain}));
  // Consecutive modulo 16.
  for (std::size_t i = 0; i + 1 < chain.sequence.size(); ++i)
    EXPECT_EQ((res.encoding.codes[chain.sequence[i]] + 1) & 15,
              res.encoding.codes[chain.sequence[i + 1]]);
}

TEST(Chains, TwoChainsPlusFreeSymbols) {
  ConstraintSet cs;
  ChainConstraint c1, c2;
  for (const char* s : {"p", "q", "r"}) c1.sequence.push_back(cs.symbols().intern(s));
  for (const char* s : {"x", "y"}) c2.sequence.push_back(cs.symbols().intern(s));
  cs.symbols().intern("free1");
  cs.symbols().intern("free2");
  const auto res = encode_with_chains(cs, {c1, c2}, 3);
  ASSERT_EQ(res.status, ChainEncodeResult::Status::kEncoded);
  EXPECT_TRUE(chains_satisfied(res.encoding, {c1, c2}));
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
}

TEST(Chains, InfeasibleCombinationDetected) {
  // Chain (a-b-c-d) fills the whole 2-bit space; the face of the three
  // codes {a, b, d} always spans the entire 2-cube (three distinct points
  // of a 2-cube never lie on one edge), so c always intrudes: infeasible.
  ConstraintSet cs = parse_constraints("face a b d\nsymbol c");
  ChainConstraint chain;
  for (const char* s : {"a", "b", "c", "d"})
    chain.sequence.push_back(cs.symbols().at(s));
  const auto res = encode_with_chains(cs, {chain}, 2);
  EXPECT_EQ(res.status, ChainEncodeResult::Status::kInfeasible);
}

TEST(Chains, HonorsOutputConstraints) {
  ConstraintSet cs = parse_constraints("dominance a b\nsymbol c\nsymbol d");
  ChainConstraint chain;
  chain.sequence = {cs.symbols().at("c"), cs.symbols().at("d")};
  const auto res = encode_with_chains(cs, {chain}, 2);
  ASSERT_EQ(res.status, ChainEncodeResult::Status::kEncoded);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
  EXPECT_TRUE(chains_satisfied(res.encoding, {chain}));
}

// The search's node counts, recorded. Every placement of a chain's
// symbols is checked against the faces before the search goes deeper.
TEST(Chains, NodeCountsAreStable) {
  ConstraintSet cube = parse_constraints(
      "face a b c d\nface a b e f\nface a c e g\nsymbol h");
  ChainConstraint hgf;
  for (const char* s : {"h", "g", "f"})
    hgf.sequence.push_back(cube.symbols().at(s));
  const auto encoded = encode_with_chains(cube, {hgf}, 3);
  ASSERT_EQ(encoded.status, ChainEncodeResult::Status::kEncoded);
  EXPECT_TRUE(chains_satisfied(encoded.encoding, {hgf}));
  EXPECT_TRUE(verify_encoding(encoded.encoding, cube).empty());
  EXPECT_EQ(encoded.nodes_explored, 112u);

  ConstraintSet tight = parse_constraints(
      "face a b\nface c d e\nface e f\nface a g\nsymbol h");
  ChainConstraint bcf;
  for (const char* s : {"b", "c", "f"})
    bcf.sequence.push_back(tight.symbols().at(s));
  const auto infeasible = encode_with_chains(tight, {bcf}, 3);
  EXPECT_EQ(infeasible.status, ChainEncodeResult::Status::kInfeasible);
  EXPECT_EQ(infeasible.nodes_explored, 129u);
}

TEST(Chains, ArgumentValidation) {
  ConstraintSet cs = parse_constraints("symbol a\nsymbol b");
  ChainConstraint chain;
  chain.sequence = {0, 1};
  EXPECT_THROW(encode_with_chains(cs, {chain, chain}, 2),
               std::invalid_argument);
  EXPECT_THROW(encode_with_chains(cs, {}, 0), std::invalid_argument);
  ConstraintSet big;
  for (int i = 0; i < 5; ++i) big.symbols().intern("s" + std::to_string(i));
  EXPECT_THROW(encode_with_chains(big, {}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace encodesat
