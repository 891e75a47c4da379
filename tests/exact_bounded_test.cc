// Tests for the exact P-3 solver and its use as the optimality oracle for
// the Section 7.1 heuristic.
#include <gtest/gtest.h>

#include "core/bounded.h"
#include "core/exact_bounded.h"
#include "core/verify.h"
#include "util/rng.h"

namespace encodesat {
namespace {

TEST(ExactBounded, SatisfiableInstanceReachesZero) {
  const ConstraintSet cs = parse_constraints("face a b\nface c d");
  const auto res = exact_bounded_encode(cs, 2);
  ASSERT_EQ(res.status, ExactBoundedResult::Status::kSolved);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.violated_faces, 0);
  EXPECT_EQ(count_satisfied_faces(res.encoding, cs), 2);
}

TEST(ExactBounded, Section7ThreeBitOptimum) {
  // The paper's Section 7 set needs 4 bits for full satisfaction; at 3 bits
  // some constraints must fail. The exact solver pins how many.
  const ConstraintSet cs = parse_constraints(R"(
    face e f c
    face e d g
    face a b d
    face a g f d
  )");
  const auto res = exact_bounded_encode(cs, 3);
  ASSERT_EQ(res.status, ExactBoundedResult::Status::kSolved);
  ASSERT_TRUE(res.optimal);
  EXPECT_GT(res.violated_faces, 0);
  EXPECT_LE(res.violated_faces, 3);  // the paper's sample encoding hits 3
}

// Mutual dominance forces a and b onto one code, so no injective 2-bit
// assignment meets the output constraints. 2 bits is a supported width,
// so the exhausted search reports the width infeasible, not too large.
TEST(ExactBounded, ExhaustedSearchReportsInfeasibleWidth) {
  const ConstraintSet cs =
      parse_constraints("dominance a b\ndominance b a\nsymbol c");
  const auto res = exact_bounded_encode(cs, 2);
  EXPECT_EQ(res.status, ExactBoundedResult::Status::kInfeasible);
  EXPECT_EQ(res.nodes_explored, 5u);
  EXPECT_FALSE(res.optimal);
  for (int bits : {0, 17})
    EXPECT_EQ(exact_bounded_encode(cs, bits).status,
              ExactBoundedResult::Status::kTooLarge)
        << bits;
}

TEST(ExactBounded, RespectsOutputConstraints) {
  const ConstraintSet cs = parse_constraints(R"(
    face a b
    dominance a b
    symbol c
  )");
  const auto res = exact_bounded_encode(cs, 2);
  ASSERT_EQ(res.status, ExactBoundedResult::Status::kSolved);
  const auto v = verify_encoding(res.encoding, cs);
  for (const auto& viol : v)
    EXPECT_EQ(viol.kind, Violation::Kind::kFace) << viol.detail;
}

TEST(ExactBounded, TooSmallSpaceThrows) {
  ConstraintSet cs;
  for (int i = 0; i < 5; ++i) cs.symbols().intern("s" + std::to_string(i));
  EXPECT_THROW(exact_bounded_encode(cs, 2), std::invalid_argument);
}

class HeuristicVsExactBounded : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicVsExactBounded, HeuristicNeverBeatsExactAndStaysClose) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 137 + 41);
  ConstraintSet cs;
  const std::uint32_t n = 5 + static_cast<std::uint32_t>(rng.next_below(3));
  for (std::uint32_t i = 0; i < n; ++i)
    cs.symbols().intern("s" + std::to_string(i));
  int faces = 0;
  for (int f = 0; f < 4; ++f) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < n; ++s)
      if (rng.next_bool(0.4)) members.push_back(s);
    if (members.size() >= 2 && members.size() < n) {
      cs.add_face_ids(std::move(members));
      ++faces;
    }
  }
  if (faces == 0) return;
  const int bits = minimum_code_length(n);

  const auto exact = exact_bounded_encode(cs, bits);
  ASSERT_EQ(exact.status, ExactBoundedResult::Status::kSolved);
  ASSERT_TRUE(exact.optimal);

  BoundedEncodeOptions opts;
  opts.cost = CostKind::kViolatedFaces;
  const auto heur = bounded_encode(cs, bits, opts);

  EXPECT_GE(heur.cost.violated_faces, exact.violated_faces) << cs.to_string();
  // Quality regression guard: the heuristic should stay within 2 violated
  // faces of the optimum on these small instances.
  EXPECT_LE(heur.cost.violated_faces, exact.violated_faces + 2)
      << cs.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicVsExactBounded,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace encodesat
