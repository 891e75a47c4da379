// Tests for the Section 4 binate-covering abstraction (Figure 1), including
// its use as a brute-force oracle against the dichotomy-based exact encoder.
#include <gtest/gtest.h>

#include "core/binate_table.h"
#include "core/encoder.h"
#include "core/solver.h"
#include "core/verify.h"
#include "util/rng.h"

namespace encodesat {
namespace {

TEST(BinateTable, Figure1Structure) {
  // Symbols a, b, c with (a,b), b > c, b = a OR c: 6 encoding columns
  // (patterns 001..110) and negative rows for every column violating an
  // output constraint.
  const ConstraintSet cs = parse_constraints(R"(
    face a b
    dominance b c
    disjunctive b a c
  )");
  const BinateTable table = build_binate_table(cs);
  EXPECT_EQ(table.patterns.size(), 6u);  // 2^3 - 2
  EXPECT_GT(table.num_unate_rows, 0u);
  EXPECT_GT(table.num_negative_rows, 0u);
  // b > c forbids every column with bit(b)=0, bit(c)=1.
  for (std::size_t c = 0; c < table.patterns.size(); ++c) {
    const std::uint64_t p = table.patterns[c];
    const bool violates_dom = ((p >> 1) & 1u) == 0 && ((p >> 2) & 1u) == 1;
    const bool violates_disj =
        (((p >> 0) | (p >> 2)) & 1u) != ((p >> 1) & 1u);
    bool forbidden = false;
    for (std::size_t r = table.num_unate_rows; r < table.problem.rows.size();
         ++r)
      if (table.problem.rows[r].neg.test(c)) forbidden = true;
    EXPECT_EQ(forbidden, violates_dom || violates_disj) << "column " << c;
  }
}

TEST(BinateTable, Figure1Solves) {
  const ConstraintSet cs = parse_constraints(R"(
    face a b
    dominance b c
    disjunctive b a c
  )");
  const auto res = binate_table_encode(cs);
  ASSERT_TRUE(res.encoded());
  EXPECT_TRUE(res.minimal);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
  EXPECT_EQ(res.encoding.bits, 2);
}

TEST(BinateTable, DetectsFigure4Infeasibility) {
  const ConstraintSet cs = parse_constraints(R"(
    face s1 s5
    face s2 s5
    face s4 s5
    symbol s0
    symbol s3
    dominance s0 s1
    dominance s0 s2
    dominance s0 s3
    dominance s0 s5
    dominance s1 s3
    dominance s2 s3
    dominance s4 s5
    dominance s5 s2
    dominance s5 s3
    disjunctive s0 s1 s2
  )");
  EXPECT_FALSE(binate_table_encode(cs).encoded());
}

TEST(BinateTable, NodeBudgetTruncationIsNotInfeasibility) {
  // Four symbols need two code bits chosen among seven distinct cuts, and
  // no root reduction decides between them — the search must branch. Under
  // a one-node budget the encode must report a truncated miss, never an
  // infeasibility certificate.
  const ConstraintSet cs = parse_constraints(R"(
    symbol a
    symbol b
    symbol c
    symbol d
  )");
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;
  const auto res = binate_table_encode(cs, tiny);
  EXPECT_EQ(res.status, SolveOutcome::Status::kTruncated);
  EXPECT_EQ(res.truncation, Truncation::kNodeLimit);
}

TEST(BinateTable, InfeasibilityProvenEvenUnderTinyBudget) {
  // Mutual dominance forces equal codes, so every column separating a and
  // b is forbidden and a uniqueness row empties during root reduction:
  // proven infeasible (not truncated) even with a one-node budget.
  const ConstraintSet cs = parse_constraints(R"(
    face a b c
    dominance a b
    dominance b a
  )");
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;
  const auto res = binate_table_encode(cs, tiny);
  EXPECT_EQ(res.status, SolveOutcome::Status::kInfeasible);
  EXPECT_EQ(res.truncation, Truncation::kNone);
}

TEST(BinateTable, RefusesLargeUniverse) {
  ConstraintSet cs;
  for (int i = 0; i < 25; ++i) cs.symbols().intern("s" + std::to_string(i));
  EXPECT_THROW(build_binate_table(cs), std::invalid_argument);
}

// Random cross-check: the dichotomy-based exact encoder and the brute-force
// binate oracle must agree on feasibility and minimum code length.
class OracleCrossCheck : public ::testing::TestWithParam<int> {};

ConstraintSet random_constraints(Rng& rng, std::uint32_t n,
                                 bool with_outputs) {
  ConstraintSet cs;
  for (std::uint32_t i = 0; i < n; ++i)
    cs.symbols().intern("s" + std::to_string(i));
  const int nfaces = 1 + static_cast<int>(rng.next_below(3));
  for (int f = 0; f < nfaces; ++f) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < n; ++s)
      if (rng.next_bool(0.4)) members.push_back(s);
    if (members.size() < 2 || members.size() >= n) continue;
    cs.add_face_ids(std::move(members));
  }
  if (with_outputs) {
    const int ndom = static_cast<int>(rng.next_below(3));
    for (int i = 0; i < ndom; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(n));
      const auto b = static_cast<std::uint32_t>(rng.next_below(n));
      if (a != b) cs.add_dominance_ids(a, b);
    }
    if (rng.next_bool(0.5) && n >= 3) {
      const auto p = static_cast<std::uint32_t>(rng.next_below(n));
      auto c1 = static_cast<std::uint32_t>(rng.next_below(n));
      auto c2 = static_cast<std::uint32_t>(rng.next_below(n));
      if (p != c1 && p != c2 && c1 != c2)
        cs.add_disjunctive_ids(p, {c1, c2});
    }
  }
  return cs;
}

TEST_P(OracleCrossCheck, ExactMatchesBinateOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7321 + 17);
  const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.next_below(3));
  const ConstraintSet cs = random_constraints(rng, n, GetParam() % 2 == 0);

  const auto oracle = binate_table_encode(cs);
  const SolveResult exact = Solver(cs).encode();
  ASSERT_NE(exact.status, SolveResult::Status::kTruncated);

  if (!oracle.encoded()) {
    EXPECT_EQ(exact.status, SolveResult::Status::kInfeasible)
        << cs.to_string();
    return;
  }
  ASSERT_EQ(exact.status, SolveResult::Status::kEncoded)
      << cs.to_string();
  EXPECT_TRUE(verify_encoding(exact.encoding, cs).empty()) << cs.to_string();
  ASSERT_TRUE(oracle.minimal);
  ASSERT_TRUE(exact.minimal);
  EXPECT_EQ(exact.encoding.bits, oracle.encoding.bits) << cs.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleCrossCheck, ::testing::Range(0, 40));

}  // namespace
}  // namespace encodesat
