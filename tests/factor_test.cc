// Tests for the algebraic-factoring literal estimate.
#include <gtest/gtest.h>

#include "logic/factor.h"
#include "util/rng.h"

namespace encodesat {
namespace {

Cube bcube(const Domain& dom, const std::string& in, const std::string& out) {
  return cube_from_string(dom, in, out);
}

TEST(Factor, SingleCubeIsItsLiterals) {
  const Domain dom = Domain::binary(4, 1);
  Cover f(dom);
  f.add(bcube(dom, "10-1", "1"));
  EXPECT_EQ(factored_literal_estimate(f), 3);
}

TEST(Factor, CommonLiteralIsShared) {
  // ab + ac: SOP has 4 literals; a(b + c) has 3.
  const Domain dom = Domain::binary(3, 1);
  Cover f(dom);
  f.add(bcube(dom, "11-", "1"));
  f.add(bcube(dom, "1-1", "1"));
  EXPECT_EQ(f.input_literals(), 4);
  EXPECT_EQ(factored_literal_estimate(f), 3);
}

TEST(Factor, DeeperSharing) {
  // abc + abd + ae -> a(b(c + d) + e): 5 literals vs SOP's 8.
  const Domain dom = Domain::binary(5, 1);
  Cover f(dom);
  f.add(bcube(dom, "111--", "1"));
  f.add(bcube(dom, "11-1-", "1"));
  f.add(bcube(dom, "1---1", "1"));
  EXPECT_EQ(f.input_literals(), 8);
  EXPECT_EQ(factored_literal_estimate(f), 5);
}

TEST(Factor, NoSharingEqualsSop) {
  // ab + cd: nothing to factor.
  const Domain dom = Domain::binary(4, 1);
  Cover f(dom);
  f.add(bcube(dom, "11--", "1"));
  f.add(bcube(dom, "--11", "1"));
  EXPECT_EQ(factored_literal_estimate(f), 4);
}

TEST(Factor, MultiOutputSumsPerOutput) {
  const Domain dom = Domain::binary(2, 2);
  Cover f(dom);
  f.add(bcube(dom, "1-", "11"));  // appears in both outputs
  f.add(bcube(dom, "-1", "01"));
  EXPECT_EQ(factored_literal_estimate(f), 1 + 2);
}

TEST(Factor, EmptyCoverIsZero) {
  EXPECT_EQ(factored_literal_estimate(Cover(Domain::binary(2, 1))), 0);
}

class FactorBound : public ::testing::TestWithParam<int> {};

TEST_P(FactorBound, NeverExceedsSopLiterals) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 67 + 29);
  const Domain dom = Domain::binary(4 + static_cast<int>(rng.next_below(3)), 1);
  Cover f(dom);
  for (int i = 0; i < 8; ++i) {
    std::string in;
    for (int v = 0; v < dom.num_inputs(); ++v) in += "01--"[rng.next_below(4)];
    f.add(cube_from_string(dom, in, "1"));
  }
  const int factored = factored_literal_estimate(f);
  EXPECT_LE(factored, f.input_literals());
  EXPECT_GE(factored, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactorBound, ::testing::Range(0, 15));

}  // namespace
}  // namespace encodesat
