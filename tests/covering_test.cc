// Tests for the unate and binate covering solvers, including brute-force
// optimality cross-checks on random instances.
#include <gtest/gtest.h>

#include "covering/binate.h"
#include "covering/shared.h"
#include "covering/unate.h"
#include "obs/counters.h"
#include "util/rng.h"

namespace encodesat {
namespace {

UnateCoverProblem make_unate(std::size_t cols,
                             const std::vector<std::vector<std::size_t>>& rows) {
  UnateCoverProblem p;
  p.num_columns = cols;
  for (const auto& r : rows) {
    Bitset row(cols);
    for (auto c : r) row.set(c);
    p.rows.push_back(std::move(row));
  }
  return p;
}

TEST(UnateCover, EmptyProblemIsFeasibleZeroCost) {
  UnateCoverProblem p;
  p.num_columns = 3;
  const auto sol = solve_unate_cover(p);
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 0);
  EXPECT_TRUE(sol.columns.empty());
}

TEST(UnateCover, EmptyRowInfeasible) {
  auto p = make_unate(2, {{0}, {}});
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.metrics = &metrics;
  EXPECT_FALSE(solve_unate_cover(p, {}, ctx).feasible);
  EXPECT_FALSE(greedy_unate_cover(p).feasible);
  // This exit reports the same counter names as every other one: the set
  // of names is part of the fingerprint.
  std::vector<std::string> names;
  for (const auto& sample : metrics.snapshot()) names.push_back(sample.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "cover.arena_allocs", "cover.arena_reuses",
                       "cover.components", "cover.nodes",
                       "cover.peak_arena_bytes"}));
}

TEST(UnateCover, EssentialColumnsPicked) {
  auto p = make_unate(3, {{0}, {1}, {0, 1, 2}});
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{0, 1}));
}

TEST(UnateCover, GreedyTrapExactEscapes) {
  // Greedy prefers column 0 (covers 3 rows) but the optimum is {1, 2}.
  auto p = make_unate(3, {{0, 1}, {0, 1}, {0, 2}, {1}, {2}});
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.optimal);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1, 2}));
}

TEST(UnateCover, RespectsWeights) {
  auto p = make_unate(3, {{0, 1}, {0, 2}});
  p.weights = {5, 1, 1};  // column 0 covers both rows but costs more
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1, 2}));
}

TEST(UnateCover, SolveValidatesProblemSize) {
  auto p = make_unate(3, {{0, 1}, {1, 2}});
  p.weights = {1, 2};  // shorter than num_columns
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3, 4};  // longer
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3};
  EXPECT_TRUE(solve_unate_cover(p).feasible);
  Bitset wide(40);  // a row of another universe
  wide.set(39);
  p.rows.push_back(wide);
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
}

TEST(UnateCover, RejectsNegativeWeights) {
  // Selecting both columns would cost -4; the search assumes weights >= 0
  // and would call cost 1 optimal.
  auto p = make_unate(2, {{0}, {0, 1}});
  p.weights = {1, -5};
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
  p.weights = {1, 0};  // zero stays legal
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 1);
}

TEST(UnateCover, CancellationKeepsGreedyCover) {
  Budget budget;
  CancelToken token;
  token.cancel();
  budget.set_cancel_token(&token);
  ExecContext ctx;
  ctx.budget = &budget;
  // The greedy trap: greedy pays 3, the search would find 2.
  const auto p = make_unate(3, {{0, 1}, {0, 1}, {0, 2}, {1}, {2}});
  const auto greedy = greedy_unate_cover(p);
  const auto sol = solve_unate_cover(p, {}, ctx);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.truncation, Truncation::kCancelled);
  EXPECT_FALSE(sol.optimal);
  EXPECT_FALSE(sol.proven_infeasible());
  EXPECT_EQ(sol.cost, greedy.cost);
  EXPECT_EQ(sol.columns, greedy.columns);
}

// Both searches' MIS bound takes rows shortest first and rows of equal
// length by index, so the bound (and every node count behind it) does not
// depend on the standard library's sort.
TEST(SearchCore, LowerBoundBreaksLengthTiesByIndex) {
  const std::vector<int> unit_weights;
  auto bound = [&](const std::vector<std::vector<std::size_t>>& rows) {
    SearchCore core(unit_weights, 1, ExecContext{}, TermArena(4),
                    TermArena(rows.size()));
    std::vector<TermRef> avail;
    std::vector<std::uint32_t> acount;
    for (const auto& r : rows) {
      avail.push_back(core.cols.alloc());
      for (const std::size_t c : r) core.cols.set(avail.back(), c);
      acount.push_back(static_cast<std::uint32_t>(r.size()));
    }
    return core.lower_bound(avail, acount, core.cols.alloc());
  };
  // {0,1} and {2,3} are disjoint; {1,2} meets both.
  EXPECT_EQ(bound({{0, 1}, {1, 2}, {2, 3}}), 2);
  EXPECT_EQ(bound({{1, 2}, {0, 1}, {2, 3}}), 1);
}

int brute_force_unate(const UnateCoverProblem& p) {
  int best = -1;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << p.num_columns);
       ++mask) {
    bool ok = true;
    for (const auto& row : p.rows) {
      bool covered = false;
      row.for_each([&](std::size_t c) {
        if ((mask >> c) & 1u) covered = true;
      });
      if (!covered && !row.empty()) {
        ok = false;
        break;
      }
      if (row.empty()) ok = false;
    }
    if (!ok) continue;
    int cost = 0;
    for (std::size_t c = 0; c < p.num_columns; ++c)
      if ((mask >> c) & 1u)
        cost += p.weights.empty() ? 1 : p.weights[c];
    if (best < 0 || cost < best) best = cost;
  }
  return best;
}

class UnateRandom : public ::testing::TestWithParam<int> {};

TEST_P(UnateRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
  const std::size_t cols = 4 + rng.next_below(8);
  const std::size_t rows = 2 + rng.next_below(10);
  UnateCoverProblem p;
  p.num_columns = cols;
  for (std::size_t r = 0; r < rows; ++r) {
    Bitset row(cols);
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.next_bool(0.3)) row.set(c);
    if (row.empty()) row.set(rng.next_below(cols));
    p.rows.push_back(std::move(row));
  }
  if (GetParam() % 3 == 0) {
    p.weights.resize(cols);
    for (auto& w : p.weights) w = 1 + static_cast<int>(rng.next_below(4));
  }
  // Weight 0 is legal: some seeds make one or two columns free.
  if (GetParam() % 5 == 1) {
    p.weights.resize(cols, 1);
    for (int k = 0; k < 2; ++k) p.weights[rng.next_below(cols)] = 0;
  }
  // Some seeds copy rows to random places, so the search meets equal open
  // rows (row dominance keeps the lowest index among equal sets).
  if (GetParam() % 4 == 2) {
    for (int k = 0; k < 3; ++k) {
      const Bitset copy = p.rows[rng.next_below(p.rows.size())];
      p.rows.insert(p.rows.begin() + static_cast<std::ptrdiff_t>(
                                         rng.next_below(p.rows.size() + 1)),
                    copy);
    }
  }
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  ASSERT_TRUE(sol.optimal);
  EXPECT_EQ(sol.cost, brute_force_unate(p));
  int cost = 0;
  for (const std::size_t c : sol.columns) cost += column_weight(p.weights, c);
  EXPECT_EQ(cost, sol.cost);
  for (const Bitset& row : p.rows)
    EXPECT_TRUE(std::any_of(sol.columns.begin(), sol.columns.end(),
                            [&](std::size_t c) { return row.test(c); }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnateRandom, ::testing::Range(0, 30));

TEST(BinateCover, PurePositiveMatchesUnate) {
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0, 1}, {});
  p.add_row({1, 2}, {});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 1);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1}));
}

TEST(BinateCover, NegativeLiteralSatisfiedByDeselection) {
  BinateCoverProblem p;
  p.num_columns = 2;
  p.add_row({}, {0});  // forbid column 0
  p.add_row({0, 1}, {});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1}));
}

TEST(BinateCover, ConflictIsInfeasible) {
  BinateCoverProblem p;
  p.num_columns = 1;
  p.add_row({0}, {});
  p.add_row({}, {0});
  EXPECT_FALSE(solve_binate_cover(p).feasible);
}

TEST(BinateCover, ImplicationChainPropagates) {
  // Select 0 -> must select 1 -> must select 2; row forces 0.
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0}, {});
  p.add_row({1}, {0});
  p.add_row({2}, {1});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 3);
}

int brute_force_binate(const BinateCoverProblem& p) {
  int best = -1;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << p.num_columns);
       ++mask) {
    bool ok = true;
    for (const auto& row : p.rows) {
      bool sat = false;
      row.pos.for_each([&](std::size_t c) {
        if ((mask >> c) & 1u) sat = true;
      });
      row.neg.for_each([&](std::size_t c) {
        if (!((mask >> c) & 1u)) sat = true;
      });
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    int cost = 0;
    for (std::size_t c = 0; c < p.num_columns; ++c)
      if ((mask >> c) & 1u)
        cost += p.weights.empty() ? 1 : p.weights[c];
    if (best < 0 || cost < best) best = cost;
  }
  return best;
}

class BinateRandom : public ::testing::TestWithParam<int> {};

TEST_P(BinateRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  const std::size_t cols = 3 + rng.next_below(8);
  const std::size_t rows = 2 + rng.next_below(12);
  BinateCoverProblem p;
  p.num_columns = cols;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> pos, neg;
    for (std::size_t c = 0; c < cols; ++c) {
      const double x = rng.next_double();
      if (x < 0.2) pos.push_back(c);
      else if (x < 0.3) neg.push_back(c);
    }
    if (pos.empty() && neg.empty()) pos.push_back(rng.next_below(cols));
    p.add_row(pos, neg);
  }
  const int expected = brute_force_binate(p);
  const auto sol = solve_binate_cover(p);
  if (expected < 0) {
    EXPECT_FALSE(sol.feasible);
  } else {
    ASSERT_TRUE(sol.feasible);
    ASSERT_TRUE(sol.optimal);
    EXPECT_EQ(sol.cost, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinateRandom, ::testing::Range(0, 30));

// A triangle of pure-positive rows: no unit rows, no row or column
// dominance, so the solver must actually branch. Minimum cover is any two
// columns (cost 2).
BinateCoverProblem binate_triangle() {
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0, 1}, {});
  p.add_row({1, 2}, {});
  p.add_row({0, 2}, {});
  return p;
}

TEST(BinateCover, NodeBudgetTruncationIsNotInfeasibility) {
  const BinateCoverProblem p = binate_triangle();
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;
  const auto sol = solve_binate_cover(p, tiny);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.truncation, Truncation::kNodeLimit);
  EXPECT_FALSE(sol.proven_infeasible());
  EXPECT_EQ(sol.cost, -1);

  // The same instance solves — and proves optimality — with budget.
  const auto full = solve_binate_cover(p);
  ASSERT_TRUE(full.feasible);
  EXPECT_TRUE(full.optimal);
  EXPECT_EQ(full.truncation, Truncation::kNone);
  EXPECT_EQ(full.cost, 2);
}

TEST(BinateCover, ProvenInfeasibilityIsNotTruncation) {
  BinateCoverProblem p;
  p.num_columns = 2;
  p.add_row({}, {});  // empty clause: unsatisfiable by any selection
  p.add_row({0, 1}, {});
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;  // infeasibility must still be proven at the root
  const auto sol = solve_binate_cover(p, tiny);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.truncation, Truncation::kNone);
  EXPECT_TRUE(sol.proven_infeasible());
  EXPECT_EQ(sol.cost, -1);
}

TEST(BinateCover, AddRowValidatesColumnIndices) {
  BinateCoverProblem p;
  p.num_columns = 2;
  EXPECT_THROW(p.add_row({2}, {}), std::invalid_argument);
  EXPECT_THROW(p.add_row({}, {5}), std::invalid_argument);
  EXPECT_TRUE(p.rows.empty());  // failed adds leave no partial row behind
  p.add_row({0}, {1});
  EXPECT_EQ(p.rows.size(), 1u);
}

TEST(BinateCover, SolveValidatesWeightSize) {
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0, 1}, {});
  p.weights = {1, 2};  // shorter than num_columns
  EXPECT_THROW(solve_binate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3, 4};  // longer
  EXPECT_THROW(solve_binate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3};
  EXPECT_TRUE(solve_binate_cover(p).feasible);
}

TEST(BinateCover, RejectsNegativeWeights) {
  BinateCoverProblem p;
  p.num_columns = 2;
  p.add_row({0}, {});
  p.add_row({0, 1}, {});
  p.weights = {1, -5};
  EXPECT_THROW(solve_binate_cover(p), std::invalid_argument);
  p.weights = {1, 0};  // zero stays legal (the extension pipeline uses it)
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 1);
}

TEST(BinateCover, ComponentsBitIdenticalAcrossThreadCounts) {
  // Two disjoint triangles plus an implication pair: three independent
  // components (the pair solves at cost 0 by deselecting both columns).
  BinateCoverProblem p;
  p.num_columns = 8;
  p.add_row({0, 1}, {});
  p.add_row({1, 2}, {});
  p.add_row({0, 2}, {});
  p.add_row({3, 4}, {});
  p.add_row({4, 5}, {});
  p.add_row({3, 5}, {});
  p.add_row({6}, {7});
  p.add_row({7}, {6});
  ExecContext seq;
  ExecContext par;
  par.num_threads = 4;
  const auto a = solve_binate_cover(p, {}, seq);
  const auto b = solve_binate_cover(p, {}, par);
  ASSERT_TRUE(a.feasible);
  EXPECT_TRUE(a.optimal);
  EXPECT_EQ(a.components, 3u);
  EXPECT_EQ(a.cost, 4);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.prune_hits, b.prune_hits);
  EXPECT_EQ(a.truncation, b.truncation);

  // Node-budget truncation points are per-component and deterministic, so
  // truncated runs stay bit-identical too.
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;
  const auto ta = solve_binate_cover(p, tiny, seq);
  const auto tb = solve_binate_cover(p, tiny, par);
  EXPECT_FALSE(ta.feasible);
  EXPECT_EQ(ta.truncation, Truncation::kNodeLimit);
  EXPECT_EQ(ta.nodes_explored, tb.nodes_explored);
  EXPECT_EQ(ta.truncation, tb.truncation);
  EXPECT_EQ(ta.feasible, tb.feasible);
}

TEST(BinateCover, CancellationSurfacesAsTruncation) {
  Budget budget;
  CancelToken token;
  token.cancel();
  budget.set_cancel_token(&token);
  ExecContext ctx;
  ctx.budget = &budget;
  const auto sol = solve_binate_cover(binate_triangle(), {}, ctx);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.truncation, Truncation::kCancelled);
  EXPECT_FALSE(sol.proven_infeasible());
}

TEST(BinateCover, RootReductionSolvesWithoutSearch) {
  // Forced chain: every assignment is unit-propagated at the root, so no
  // search nodes are spent and the result is optimal by construction.
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0}, {});
  p.add_row({1}, {0});
  p.add_row({2}, {1});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.optimal);
  EXPECT_EQ(sol.cost, 3);
  EXPECT_EQ(sol.nodes_explored, 0u);
  EXPECT_GE(sol.propagations, 3u);
}

}  // namespace
}  // namespace encodesat
