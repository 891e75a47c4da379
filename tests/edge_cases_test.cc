// Edge-case and budget-path tests across the modules.
#include <gtest/gtest.h>

#include "core/binate_table.h"
#include "core/encoder.h"
#include "core/extensions.h"
#include "core/primes.h"
#include "core/solver.h"
#include "core/verify.h"
#include "logic/espresso.h"
#include "logic/urp.h"

namespace encodesat {
namespace {

TEST(PrimeBudget, WorkBudgetTruncates) {
  // A dense incompatibility structure with a microscopic work budget must
  // report truncation instead of grinding.
  const std::size_t k = 12;
  std::vector<Bitset> inc(2 * k, Bitset(2 * k));
  for (std::size_t i = 0; i < k; ++i) {
    inc[2 * i].set(2 * i + 1);
    inc[2 * i + 1].set(2 * i);
  }
  bool truncated = false;
  const auto sop = two_cnf_to_minimal_sop(inc, 1u << 20, &truncated, 10);
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(sop.empty());
}

TEST(PrimeBudget, ExactEncodeReportsPrimeLimit) {
  // Many unconstrained symbols: 2^(n-1) - 1 primes, beyond a tiny budget.
  ConstraintSet cs;
  for (int i = 0; i < 14; ++i) cs.symbols().intern("s" + std::to_string(i));
  SolveOptions opts;
  opts.exact.prime_options.max_terms = 50;
  const SolveResult res = Solver(cs).encode(opts);
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_TRUE(res.truncated);
  EXPECT_EQ(res.truncation, Truncation::kTermLimit);
}

TEST(ExactEncode, TwoSymbols) {
  ConstraintSet cs;
  cs.symbols().intern("a");
  cs.symbols().intern("b");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res.encoding.bits, 1);
  EXPECT_NE(res.encoding.codes[0], res.encoding.codes[1]);
}

TEST(ExactEncode, FaceCoveringAllSymbolsIsVacuous) {
  // A face containing every symbol generates no dichotomies; only
  // uniqueness remains.
  const ConstraintSet cs = parse_constraints("face a b c");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res.encoding.bits, 2);
}

TEST(ExactEncode, SelfDominanceLoopsAreIgnoredByParser) {
  // The parser rejects a > a outright.
  EXPECT_THROW(parse_constraints("dominance x x"), std::runtime_error);
}

TEST(ExactEncode, EqualCodesForcedByMutualDominanceIsInfeasible) {
  // a > b and b > a force equal codes, clashing with uniqueness.
  ConstraintSet cs;
  cs.add_dominance("a", "b");
  cs.add_dominance("b", "a");
  EXPECT_FALSE(Solver(cs).feasible());
}

TEST(ExactEncode, DominanceChainStillEncodable) {
  const ConstraintSet cs = parse_constraints(R"(
    dominance a b
    dominance b c
    dominance c d
  )");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  // A chain a > b > c > d is satisfiable with nested codes.
  const auto& codes = res.encoding.codes;
  EXPECT_EQ(codes[0] & codes[1], codes[1]);
  EXPECT_EQ(codes[1] & codes[2], codes[2]);
  EXPECT_EQ(codes[2] & codes[3], codes[3]);
}

TEST(ExactEncode, DisjunctiveWithManyChildren) {
  const ConstraintSet cs = parse_constraints(R"(
    disjunctive p a b c d
    face a b
  )");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  std::uint64_t orv = 0;
  const auto& sym = cs.symbols();
  for (const char* c : {"a", "b", "c", "d"})
    orv |= res.encoding.codes[sym.at(c)];
  EXPECT_EQ(res.encoding.codes[sym.at("p")], orv);
}

TEST(Extensions, PrimeLimitPropagates) {
  ConstraintSet cs;
  for (int i = 0; i < 14; ++i) cs.symbols().intern("s" + std::to_string(i));
  cs.add_distance2("s0", "s1");
  SolveOptions opts;
  opts.extensions.prime_options.max_terms = 20;
  const SolveResult res = Solver(cs).encode(opts);
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_TRUE(res.truncated);
}

TEST(BinateTable, OutputOnlyProblem) {
  const ConstraintSet cs = parse_constraints("dominance a b\nsymbol c");
  const auto res = binate_table_encode(cs);
  ASSERT_TRUE(res.encoded());
  const auto v = verify_encoding(res.encoding, cs);
  EXPECT_TRUE(v.empty());
}

TEST(Espresso, StatsPopulated) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(cube_from_string(dom, "00", "1"));
  on.add(cube_from_string(dom, "01", "1"));
  EspressoStats stats;
  const Cover min = espresso(on, Cover(dom), {}, &stats);
  EXPECT_EQ(stats.initial_cubes, 2u);
  EXPECT_EQ(stats.final_cubes, 1u);
  EXPECT_EQ(min.size(), stats.final_cubes);
}

TEST(Verify, SixtyFourSymbolUniverse) {
  // The extension solver and verifier must handle the top of the supported
  // range (codes in 64-bit words).
  ConstraintSet cs;
  for (int i = 0; i < 64; ++i) cs.symbols().intern("s" + std::to_string(i));
  Encoding enc;
  enc.bits = 6;
  enc.codes.resize(64);
  for (std::uint32_t s = 0; s < 64; ++s) enc.codes[s] = s;
  EXPECT_TRUE(verify_encoding(enc, cs).empty());
}

}  // namespace
}  // namespace encodesat
