// Solver facade tests (core/solver.h): pipeline routing and its limits,
// the parallel determinism contract (threads=N bit-identical to
// sequential), deadline / work-budget / cancellation truncation, the
// non-throwing parser, and the stats tree.
//
// ENCODESAT_EXAMPLES_DATA_DIR points at examples/data so the determinism
// tests run on the same bundled instances the CLI integration tests use.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.h"
#include "covering/unate.h"

namespace encodesat {
namespace {

std::string read_data_file(const std::string& name) {
  const std::string path = std::string(ENCODESAT_EXAMPLES_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ConstraintSet quickstart_constraints() {
  return parse_constraints(R"(
    face b c
    face c d
    face b a
    face a d
    dominance b c
    dominance a c
    disjunctive a b d
  )");
}

// A face-heavy instance whose prime generation runs long enough that a
// millisecond-scale deadline reliably expires mid-pipeline. Overlapping
// triples plus long-stride pairs make the incompatibility graph dense and
// irregular, so the cs/ps recursion has many folds (= poll points).
ConstraintSet hard_instance(int n) {
  ConstraintSet cs;
  for (int i = 0; i < n; ++i) cs.symbols().intern("s" + std::to_string(i));
  auto face = [&](std::vector<std::uint32_t> m) {
    cs.add_face_ids(std::move(m));
  };
  for (int i = 0; i + 2 < n; ++i)
    face({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i + 1),
          static_cast<std::uint32_t>(i + 2)});
  for (int i = 0; i + 7 < n; i += 2)
    face({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i + 7)});
  for (int i = 0; i + 11 < n; i += 3)
    face({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i + 11)});
  return cs;
}

void expect_same_result(const SolveResult& a, const SolveResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.encoding.bits, b.encoding.bits);
  EXPECT_EQ(a.encoding.codes, b.encoding.codes);
  EXPECT_EQ(a.minimal, b.minimal);
  EXPECT_EQ(a.truncation, b.truncation);
  EXPECT_EQ(a.num_initial, b.num_initial);
  EXPECT_EQ(a.num_primes, b.num_primes);
  EXPECT_EQ(a.num_valid_primes, b.num_valid_primes);
  EXPECT_EQ(a.uncovered, b.uncovered);
}

// The exact pipeline's trivial corner: no symbols encode in 0 bits and one
// symbol in 1 bit, both as proven minimum-length answers.
TEST(Solver, ZeroAndOneSymbolsEncodeMinimal) {
  for (const char* text : {"", "symbol a\n"}) {
    const ConstraintSet cs = parse_constraints(text);
    const std::uint32_t n = cs.num_symbols();
    SCOPED_TRACE(n);
    SolveRequest req;
    req.constraints = cs;
    const SolveResponse resp = solve(req);
    EXPECT_EQ(resp.status, StatusCode::kOk);
    const SolveResult& r = resp.result;
    EXPECT_EQ(r.status, SolveResult::Status::kEncoded);
    EXPECT_EQ(r.encoding.bits, static_cast<int>(n));
    EXPECT_EQ(r.encoding.codes, std::vector<std::uint64_t>(n, 0));
    EXPECT_TRUE(r.minimal);
    EXPECT_FALSE(r.truncated);
  }
}

TEST(Solver, FeasibilityMatchesDirectCheck) {
  const ConstraintSet cs = quickstart_constraints();
  EXPECT_TRUE(Solver(cs).feasible());
  EXPECT_TRUE(check_feasible(cs, ExecContext{}).feasible);

  const auto infeasible = parse_constraints(read_data_file("infeasible.constraints"), nullptr);
  ASSERT_TRUE(infeasible.has_value());
  EXPECT_FALSE(Solver(*infeasible).feasible());
}

TEST(Solver, ParallelBitIdenticalToSequentialOnBundledExamples) {
  for (const char* name : {"mixed.constraints", "infeasible.constraints"}) {
    SCOPED_TRACE(name);
    const auto cs = parse_constraints(read_data_file(name), nullptr);
    ASSERT_TRUE(cs.has_value());
    SolveOptions seq;
    seq.exec.threads = 1;
    SolveOptions par;
    par.exec.threads = 4;
    const SolveResult a = Solver(*cs).encode(seq);
    const SolveResult b = Solver(*cs).encode(par);
    expect_same_result(a, b);
  }
}

TEST(Solver, ParallelBitIdenticalToSequentialOnDenseInstance) {
  const ConstraintSet cs = hard_instance(10);
  SolveOptions seq;
  seq.exec.threads = 1;
  SolveOptions par;
  par.exec.threads = 4;
  const SolveResult a = Solver(cs).encode(seq);
  const SolveResult b = Solver(cs).encode(par);
  expect_same_result(a, b);
  // Repeated runs are stable too.
  expect_same_result(a, Solver(cs).encode(par));
}

TEST(Solver, MillisecondDeadlineTruncatesWithoutHanging) {
  const ConstraintSet cs = hard_instance(40);
  SolveOptions opts;
  opts.exec.timeout_seconds = 0.001;
  const auto start = std::chrono::steady_clock::now();
  const SolveResult res = Solver(cs).encode(opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_NE(res.truncation, Truncation::kNone);
  // "Promptly" leaves slack for slow CI machines; the point is that an
  // expired deadline cannot hang in a stage that ignores the budget.
  EXPECT_LT(elapsed, 10.0);
}

TEST(Solver, ExpiredDeadlineReportsDeadlineTruncation) {
  const ConstraintSet cs = hard_instance(40);
  SolveOptions opts;
  opts.exec.timeout_seconds = 1e-9;
  const SolveResult res = Solver(cs).encode(opts);
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_EQ(res.truncation, Truncation::kDeadline);
}

TEST(Solver, WorkBudgetTruncationIsThreadCountIndependent) {
  const ConstraintSet cs = hard_instance(14);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SolveOptions opts;
    opts.exec.threads = threads;
    opts.exec.max_work = 2000;  // tiny: trips during prime generation
    const SolveResult res = Solver(cs).encode(opts);
    EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
    EXPECT_EQ(res.truncation, Truncation::kWorkBudget);
  }
}

TEST(Solver, PreCancelledTokenTruncatesImmediately) {
  const ConstraintSet cs = hard_instance(40);
  CancelToken token;
  token.cancel();
  SolveOptions opts;
  opts.exec.cancel = &token;
  const SolveResult res = Solver(cs).encode(opts);
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_EQ(res.truncation, Truncation::kCancelled);
}

TEST(Solver, MidSolveCancellationReturnsPromptly) {
  const ConstraintSet cs = hard_instance(40);
  CancelToken token;
  SolveOptions opts;
  opts.exec.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.cancel();
  });
  const SolveResult res = Solver(cs).encode(opts);
  canceller.join();
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_NE(res.truncation, Truncation::kNone);
}

TEST(Solver, StatsTreeRecordsPipelineStages) {
  const ConstraintSet cs = quickstart_constraints();
  const SolveResult res = Solver(cs).encode();
  ASSERT_TRUE(res.encoded());
  EXPECT_EQ(res.stats.name, "solve");
  EXPECT_NE(res.stats.find("prime_generation"), nullptr);
  EXPECT_NE(res.stats.find("unate_cover"), nullptr);
  const std::string json = res.stats.to_json();
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"prime_generation\""), std::string::npos);
}

TEST(Solver, ExtensionPipelineRoutesAutomatically) {
  ConstraintSet cs;
  cs.symbols().intern("a");
  cs.symbols().intern("b");
  cs.symbols().intern("c");
  cs.add_distance2("a", "b");
  const SolveResult res = Solver(cs).encode();
  ASSERT_TRUE(res.encoded());
  EXPECT_NE(res.stats.find("extensions"), nullptr);
}

// The extension pipeline packs one bit per symbol into a 64-bit column, so
// a larger instance is refused with the limit named — never reported as a
// budget truncation.
TEST(Solver, ExtensionPipelineRefusesMoreThan64Symbols) {
  std::string text;
  for (int i = 0; i < 65; ++i) text += "symbol s" + std::to_string(i) + "\n";
  text += "distance2 s0 s1\n";
  SolveRequest req;
  req.constraints = parse_constraints(text);
  const SolveResponse resp = solve(req);
  EXPECT_EQ(resp.status, StatusCode::kInternal);
  EXPECT_NE(resp.detail.find("at most 64 symbols"), std::string::npos)
      << resp.detail;
}

TEST(Solver, CoverBudgetTruncationIsNotInfeasible) {
  // A feasible distance-2 instance under a one-node cover budget: the
  // extension pipeline must surface kTruncated, never a false
  // infeasibility certificate.
  ConstraintSet cs;
  cs.symbols().intern("a");
  cs.symbols().intern("b");
  cs.symbols().intern("c");
  cs.symbols().intern("d");
  cs.add_distance2("a", "b");
  cs.add_distance2("c", "d");
  SolveOptions opts;
  opts.extensions.cover_options.max_nodes = 1;
  const SolveResult res = Solver(cs).encode(opts);
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_TRUE(res.truncated);
  EXPECT_EQ(res.truncation, Truncation::kNodeLimit);

  // With the default budget the same instance encodes.
  EXPECT_TRUE(Solver(cs).encode().encoded());
}

TEST(BoundedEncode, ExpiredBudgetStillProducesValidCodes) {
  const ConstraintSet cs = hard_instance(12);
  Budget budget;
  budget.set_deadline_after(-1.0);
  StageStats stats("solve");
  const ExecContext ctx{&budget, &stats, 1};
  const BoundedEncodeResult res = bounded_encode(cs, 4, {}, ctx);
  EXPECT_EQ(res.truncation, Truncation::kDeadline);
  // Codes stay unique (the structurally safe selection).
  std::vector<std::uint64_t> codes = res.encoding.codes;
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(std::adjacent_find(codes.begin(), codes.end()), codes.end());
  const StageStats* stage = stats.find("bounded_encode");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->truncation, Truncation::kDeadline);
}

TEST(ParseConstraints, NonThrowingOverloadReportsLineNumbers) {
  ParseError err;
  const auto bad = parse_constraints("face a b\n\ndominance a\n", &err);
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(err.line, 3);
  EXPECT_EQ(err.column, 1);
  EXPECT_EQ(err.message, "dominance takes two names");
  EXPECT_EQ(err.to_string(), "line 3, col 1: dominance takes two names");

  const auto good = parse_constraints("face a b\n", &err);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->num_symbols(), 2u);

  // Null error pointer is allowed.
  EXPECT_FALSE(parse_constraints("bogus x y\n", nullptr).has_value());
  // The throwing overload still throws with the same diagnostic.
  EXPECT_THROW(parse_constraints("bogus x y\n"), std::runtime_error);
}

TEST(UnateCover, IndependentComponentsSolvedInParallelMatchSequential) {
  // Three disjoint 3-cycles (cyclic cores: no essential columns, no
  // dominance) — the root decomposition must find 3 components and the
  // merged optimum must be identical for every thread count.
  UnateCoverProblem p;
  p.num_columns = 9;
  for (int block = 0; block < 3; ++block) {
    const std::size_t base = static_cast<std::size_t>(block) * 3;
    for (int r = 0; r < 3; ++r) {
      Bitset row(p.num_columns);
      row.set(base + static_cast<std::size_t>(r));
      row.set(base + static_cast<std::size_t>((r + 1) % 3));
      p.rows.push_back(row);
    }
  }
  const CoverSolution seq = solve_unate_cover(p, {}, ExecContext{});
  const ExecContext par_ctx{nullptr, nullptr, 4};
  const CoverSolution par = solve_unate_cover(p, {}, par_ctx);
  ASSERT_TRUE(seq.feasible);
  EXPECT_TRUE(seq.optimal);
  EXPECT_EQ(seq.cost, 6);  // 2 columns per 3-cycle
  EXPECT_EQ(seq.components, 3u);
  EXPECT_EQ(par.components, 3u);
  EXPECT_EQ(par.cost, seq.cost);
  EXPECT_EQ(par.columns, seq.columns);
  EXPECT_EQ(par.optimal, seq.optimal);
}

}  // namespace
}  // namespace encodesat
