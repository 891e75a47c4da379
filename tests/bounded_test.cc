// Tests for the bounded-length heuristic encoder (Section 7.1).
#include <gtest/gtest.h>

#include "core/bounded.h"
#include "core/encoder.h"
#include "core/verify.h"
#include "util/rng.h"

namespace encodesat {
namespace {

TEST(Bounded, MinimumCodeLengthHelper) {
  EXPECT_EQ(minimum_code_length(1), 1);
  EXPECT_EQ(minimum_code_length(2), 1);
  EXPECT_EQ(minimum_code_length(3), 2);
  EXPECT_EQ(minimum_code_length(4), 2);
  EXPECT_EQ(minimum_code_length(5), 3);
  EXPECT_EQ(minimum_code_length(16), 4);
  EXPECT_EQ(minimum_code_length(17), 5);
}

TEST(Bounded, RejectsTooShortCodes) {
  ConstraintSet cs;
  for (int i = 0; i < 5; ++i) cs.symbols().intern("s" + std::to_string(i));
  EXPECT_THROW(bounded_encode(cs, 2), std::invalid_argument);
}

// Under every cost kind, from the minimum length to 7 bits: both sides of
// the six-bit face-cost table.
TEST(Bounded, CodesAreAlwaysUnique) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    ConstraintSet cs;
    const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng.next_below(9));
    for (std::uint32_t i = 0; i < n; ++i)
      cs.symbols().intern("s" + std::to_string(i));
    for (int f = 0; f < 4; ++f) {
      std::vector<std::uint32_t> members;
      for (std::uint32_t s = 0; s < n; ++s)
        if (rng.next_bool(0.35)) members.push_back(s);
      if (members.size() >= 2 && members.size() < n)
        cs.add_face_ids(std::move(members));
    }
    for (const CostKind kind : {CostKind::kViolatedFaces, CostKind::kCubes,
                                CostKind::kLiterals}) {
      for (int bits = minimum_code_length(n); bits <= 7; ++bits) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " kind " +
                     std::to_string(static_cast<int>(kind)) + " bits " +
                     std::to_string(bits));
        BoundedEncodeOptions opts;
        opts.cost = kind;
        const auto res = bounded_encode(cs, bits, opts);
        const auto violations = verify_encoding(res.encoding, cs);
        for (const auto& v : violations)
          EXPECT_NE(v.kind, Violation::Kind::kDuplicateCode) << v.detail;
      }
    }
  }
}

TEST(Bounded, SatisfiesEasyConstraintsAtMinimumLength) {
  // Two disjoint pairs in 2 bits: both faces are satisfiable.
  const ConstraintSet cs = parse_constraints("face a b\nface c d");
  BoundedEncodeOptions opts;
  opts.cost = CostKind::kViolatedFaces;
  const auto res = bounded_encode(cs, 2, opts);
  EXPECT_EQ(res.cost.violated_faces, 0);
}

TEST(Bounded, ExtraBitsNeverHurtFeasibility) {
  const ConstraintSet cs = parse_constraints(R"(
    face e f c
    face e d g
    face a b d
    face a g f d
  )");
  // 4 bits satisfy everything exactly; the heuristic should find a
  // reasonably good 4-bit solution too (not necessarily perfect).
  BoundedEncodeOptions opts;
  opts.cost = CostKind::kViolatedFaces;
  opts.max_selection_evals = 2000;
  const auto res = bounded_encode(cs, 4, opts);
  EXPECT_LE(res.cost.violated_faces, 2);
  const auto violations = verify_encoding(res.encoding, cs);
  for (const auto& v : violations)
    EXPECT_NE(v.kind, Violation::Kind::kDuplicateCode);
}

TEST(Bounded, CubesCostDecreasesWithLongerCodes) {
  const ConstraintSet cs = parse_constraints(R"(
    face e f c
    face e d g
    face a b d
    face a g f d
  )");
  BoundedEncodeOptions opts;
  opts.cost = CostKind::kCubes;
  const auto res3 = bounded_encode(cs, 3, opts);
  const auto res4 = bounded_encode(cs, 4, opts);
  EXPECT_LE(res4.cost.cubes, res3.cost.cubes);
}

TEST(Bounded, TwoSymbolsOneBit) {
  const ConstraintSet cs = parse_constraints("symbol a\nsymbol b");
  const auto res = bounded_encode(cs, 1);
  EXPECT_NE(res.encoding.codes[0], res.encoding.codes[1]);
}

TEST(Bounded, LiteralCostEvaluates) {
  const ConstraintSet cs = parse_constraints("face a b\nface b c\nsymbol d");
  BoundedEncodeOptions opts;
  opts.cost = CostKind::kLiterals;
  const auto res = bounded_encode(cs, 2, opts);
  EXPECT_GE(res.cost.literals, 0);
  EXPECT_EQ(res.encoding.bits, 2);
}

class BoundedRandom : public ::testing::TestWithParam<int> {};

TEST_P(BoundedRandom, NeverWorseThanAllViolated) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 3);
  ConstraintSet cs;
  const std::uint32_t n = 5 + static_cast<std::uint32_t>(rng.next_below(6));
  for (std::uint32_t i = 0; i < n; ++i)
    cs.symbols().intern("s" + std::to_string(i));
  int nfaces = 0;
  for (int f = 0; f < 5; ++f) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < n; ++s)
      if (rng.next_bool(0.3)) members.push_back(s);
    if (members.size() >= 2 && members.size() < n) {
      cs.add_face_ids(std::move(members));
      ++nfaces;
    }
  }
  BoundedEncodeOptions opts;
  opts.cost = CostKind::kViolatedFaces;
  const auto res = bounded_encode(cs, minimum_code_length(n), opts);
  EXPECT_LE(res.cost.violated_faces, nfaces);
  EXPECT_EQ(res.encoding.bits, minimum_code_length(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedRandom, ::testing::Range(0, 12));

}  // namespace
}  // namespace encodesat
