#include "covering/unate.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "covering/shared.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"

namespace encodesat {

namespace {

int column_weight(const UnateCoverProblem& p, std::size_t c) {
  return p.weights.empty() ? 1 : p.weights[c];
}

void check_problem(const char* solver, const UnateCoverProblem& p) {
  check_cover_problem(
      solver, p.num_columns, p.weights,
      std::all_of(p.rows.begin(), p.rows.end(), [&](const Bitset& r) {
        return r.size() == p.num_columns;
      }));
}

// Search state shared across the branch-and-bound recursion. Rows are
// immutable; a node is characterized by the set of excluded columns and the
// set of still-uncovered rows.
//
// All working sets live in two TermArenas (util/term_arena.h): `col_sets`
// holds column sets (the immutable row→columns table, the exclusion set and
// the per-node available-column sets), `row_sets` holds row sets (the
// covered-rows mask). Each solve() frame owns the refs it receives and the
// per-node scratch it allocates; TermGuard returns them to the free list on
// every exit path, so the recursion performs no per-node heap allocation
// for set data — the arena high-water mark is O(depth · active rows).
struct Search {
  const UnateCoverProblem& p;
  const UnateCoverOptions& opts;
  ExecContext ctx;
  TermArena col_sets;
  TermArena row_sets;
  std::vector<TermRef> row_cols;  // row -> its column set (immutable)
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  Truncation truncation = Truncation::kNone;
  int best_cost = std::numeric_limits<int>::max();
  std::vector<std::size_t> best_columns;

  Search(const UnateCoverProblem& problem, const UnateCoverOptions& options,
         const ExecContext& context)
      : p(problem),
        opts(options),
        ctx(context),
        col_sets(problem.num_columns, problem.rows.size() + 64),
        row_sets(problem.rows.size(), 64) {
    row_cols.reserve(p.rows.size());
    for (const Bitset& r : p.rows) row_cols.push_back(col_sets.from_bitset(r));
  }

  void record(const std::vector<std::size_t>& selected, int cost) {
    if (cost < best_cost) {
      best_cost = cost;
      best_columns = selected;
    }
  }

  // Greedy maximal-independent-set lower bound: a set of pairwise
  // column-disjoint uncovered rows; any cover pays at least the cheapest
  // column of each row in the set. `acount` caches the avail popcounts.
  int lower_bound(const std::vector<TermRef>& avail,
                  const std::vector<std::uint32_t>& acount,
                  std::vector<std::size_t>& order, TermRef used) {
    // Consider short rows first: they are more likely to be independent and
    // carry tighter bounds.
    order.resize(avail.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return acount[a] < acount[b];
    });
    int bound = 0;
    for (std::size_t i : order) {
      if (col_sets.intersects(avail[i], used)) continue;
      col_sets.or_into(used, avail[i]);
      int cheapest = std::numeric_limits<int>::max();
      col_sets.for_each(avail[i], [&](std::size_t c) {
        cheapest = std::min(cheapest, column_weight(p, c));
      });
      bound += cheapest;
    }
    return bound;
  }

  // Takes ownership of `excluded` (col_sets) and `covered` (row_sets).
  void solve(TermRef excluded, TermRef covered,
             std::vector<std::size_t> selected, int cost) {
    TermGuard cguard(col_sets);
    TermGuard rguard(row_sets);
    cguard.track(excluded);
    rguard.track(covered);
    if (budget_exhausted) return;
    if (++nodes > opts.max_nodes) {
      budget_exhausted = true;
      truncation = Truncation::kNodeLimit;
      return;
    }
    // Shared-budget checks: a cheap exhaustion flag every node (catches a
    // limit tripped by a sibling component's thread), a clock poll every
    // 1024 nodes. Either way the greedy/best-so-far cover stays valid.
    if (ctx.exhausted() || ((nodes & 1023u) == 0 && !ctx.poll())) {
      budget_exhausted = true;
      truncation = ctx.reason();
      return;
    }

    // --- Reductions to fixpoint -----------------------------------------
    const TermRef tmp = cguard.track(col_sets.alloc());
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t r = 0; r < p.rows.size(); ++r) {
        if (row_sets.test(covered, r)) continue;
        col_sets.andnot_of(tmp, row_cols[r], excluded);
        const std::size_t n = col_sets.count(tmp);
        if (n == 0) return;  // row uncoverable: dead branch
        if (n == 1) {
          // Essential column.
          const std::size_t c = col_sets.first(tmp);
          selected.push_back(c);
          cost += column_weight(p, c);
          if (cost >= best_cost) return;
          for (std::size_t q = 0; q < p.rows.size(); ++q)
            if (!row_sets.test(covered, q) && p.rows[q].test(c))
              row_sets.set(covered, q);
          changed = true;
        }
      }
    }

    // Collect active rows and their available column sets.
    std::vector<std::size_t> active;
    std::vector<TermRef> avail;
    std::vector<std::uint32_t> acount;
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      if (!row_sets.test(covered, r)) {
        const TermRef a = cguard.track(col_sets.alloc());
        col_sets.andnot_of(a, row_cols[r], excluded);
        active.push_back(r);
        avail.push_back(a);
        acount.push_back(static_cast<std::uint32_t>(col_sets.count(a)));
      }
    }
    if (active.empty()) {
      record(selected, cost);
      return;
    }

    // Row dominance: if avail[i] ⊆ avail[j], covering row i covers row j,
    // so row j can be dropped. Quadratic — only worth it on smallish sets.
    if (active.size() <= 512) {
      std::vector<bool> drop(active.size(), false);
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (drop[i]) continue;
        for (std::size_t j = 0; j < active.size(); ++j) {
          if (i == j || drop[j]) continue;
          if (acount[i] > acount[j]) continue;
          if (col_sets.is_subset(avail[i], avail[j]) &&
              !(acount[i] == acount[j] &&
                col_sets.equal(avail[i], avail[j]) && i > j))
            drop[j] = true;
        }
      }
      std::size_t kept = 0;
      for (std::size_t i = 0; i < active.size(); ++i)
        if (!drop[i]) {
          active[kept] = active[i];
          avail[kept] = avail[i];
          acount[kept] = acount[i];
          ++kept;
        }
      active.resize(kept);
      avail.resize(kept);
      acount.resize(kept);
    }

    {
      const TermRef used = cguard.track(col_sets.alloc());
      std::vector<std::size_t> order;
      if (cost + lower_bound(avail, acount, order, used) >= best_cost)
        return;
    }

    // Branch on the most-covering column of the shortest row.
    std::size_t pivot_row = 0;
    for (std::size_t i = 1; i < avail.size(); ++i)
      if (acount[i] < acount[pivot_row]) pivot_row = i;

    std::size_t branch_col = p.num_columns;
    std::size_t best_score = 0;
    col_sets.for_each(avail[pivot_row], [&](std::size_t c) {
      std::size_t score = 0;
      for (std::size_t i = 0; i < avail.size(); ++i)
        if (col_sets.test(avail[i], c)) ++score;
      if (branch_col == p.num_columns || score > best_score ||
          (score == best_score && c < branch_col)) {
        best_score = score;
        branch_col = c;
      }
    });
    assert(branch_col < p.num_columns);

    // Branch 1: select the column.
    {
      const TermRef cov = row_sets.clone(covered);
      for (std::size_t q = 0; q < p.rows.size(); ++q)
        if (!row_sets.test(cov, q) && p.rows[q].test(branch_col))
          row_sets.set(cov, q);
      auto sel = selected;
      sel.push_back(branch_col);
      solve(col_sets.clone(excluded), cov, std::move(sel),
            cost + column_weight(p, branch_col));
    }
    // Branch 2: exclude the column.
    {
      const TermRef exc = col_sets.clone(excluded);
      col_sets.set(exc, branch_col);
      solve(exc, row_sets.clone(covered), std::move(selected), cost);
    }
  }
};

}  // namespace

CoverSolution greedy_unate_cover(const UnateCoverProblem& p) {
  check_problem("greedy_unate_cover", p);
  CoverSolution sol;
  int cost = 0;
  Bitset covered(p.rows.size());
  std::size_t remaining = p.rows.size();
  for (const Bitset& r : p.rows)
    if (r.empty()) return sol;  // infeasible

  while (remaining > 0) {
    // Pick the column covering the most uncovered rows per unit weight.
    std::vector<std::size_t> cover_count(p.num_columns, 0);
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      if (!covered.test(r))
        p.rows[r].for_each([&](std::size_t c) { ++cover_count[c]; });
    std::size_t best = p.num_columns;
    double best_ratio = -1.0;
    for (std::size_t c = 0; c < p.num_columns; ++c) {
      if (cover_count[c] == 0) continue;
      const double ratio =
          static_cast<double>(cover_count[c]) / column_weight(p, c);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = c;
      }
    }
    if (best == p.num_columns) return sol;  // cannot make progress
    sol.columns.push_back(best);
    cost += column_weight(p, best);
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      if (!covered.test(r) && p.rows[r].test(best)) {
        covered.set(r);
        --remaining;
      }
  }
  sol.feasible = true;
  sol.cost = cost;
  std::sort(sol.columns.begin(), sol.columns.end());
  return sol;
}

namespace {

// Greedy seed + branch-and-bound over one component of the column-reduced
// table; `truncation` names the budget that stopped it short of a proof.
// Runs single-threaded: the parallelism lives one level up, across
// components.
CoverSolution solve_component(const UnateCoverProblem& q,
                              const UnateCoverOptions& options,
                              const ExecContext& ctx) {
  TRACE_SCOPE(ctx, "unate_component");
  CoverSolution greedy = greedy_unate_cover(q);
  if (!greedy.feasible) return greedy;

  CoverSolution sol;
  sol.feasible = true;
  sol.cost = greedy.cost;
  sol.columns = greedy.columns;
  if (options.max_nodes > 0) {
    Search search(q, options, ctx);
    search.best_cost = greedy.cost;
    search.best_columns = greedy.columns;
    search.solve(search.col_sets.alloc(), search.row_sets.alloc(), {}, 0);
    sol.truncation = search.truncation;
    sol.columns = search.best_columns;
    sol.cost = search.best_cost;
    sol.nodes_explored = search.nodes;
    sol.arena_allocs =
        search.col_sets.total_allocs() + search.row_sets.total_allocs();
    sol.arena_reuses =
        search.col_sets.total_reuses() + search.row_sets.total_reuses();
    sol.peak_arena_bytes =
        search.col_sets.peak_bytes() + search.row_sets.peak_bytes();
  } else {
    // Greedy only, by configuration: no optimality proof was attempted.
    sol.truncation = Truncation::kNodeLimit;
  }
  return sol;
}

// Root column reduction (some optimal cover does without the dominated
// columns; on cse, dk512 and master's tables it drops 12-20% of them),
// then one search per independent component. Every row of `p` holds a
// column.
CoverSolution reduce_and_solve(const UnateCoverProblem& p,
                               const UnateCoverOptions& options,
                               const ExecContext& ctx) {
  std::vector<std::size_t> kept;  // reduced column -> original column
  std::vector<Bitset> rows;       // over the reduced columns
  {
    TRACE_SCOPE(ctx, "reduce_columns");
    std::vector<Bitset> coverage(p.num_columns, Bitset(p.rows.size()));
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      p.rows[r].for_each([&](std::size_t c) { coverage[c].set(r); });
    kept = undominated_columns(
        coverage, [&](std::size_t c) { return column_weight(p, c); });
    rows.assign(p.rows.size(), Bitset(kept.size()));
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      for (std::size_t i = 0; i < kept.size(); ++i)
        if (p.rows[r].test(kept[i])) rows[r].set(i);
  }

  const ComponentSplit split = split_components(kept.size(), rows);
  std::vector<UnateCoverProblem> subs(split.size());
  for (std::size_t k = 0; k < split.size(); ++k) {
    subs[k].num_columns = split.columns[k].size();
    if (!p.weights.empty())
      for (const std::size_t c : split.columns[k])
        subs[k].weights.push_back(p.weights[kept[c]]);
  }
  for (Bitset& row : rows) {
    UnateCoverProblem& sub = subs[split.component[row.first()]];
    Bitset local(sub.num_columns);
    row.for_each([&](std::size_t c) { local.set(split.local[c]); });
    sub.rows.push_back(std::move(local));
    row = Bitset();  // the subproblems replace the reduced table
  }
  return solve_components(split, kept, ctx,
                          [&](std::size_t k, const ExecContext& sub_ctx) {
                            return solve_component(subs[k], options, sub_ctx);
                          });
}

}  // namespace

CoverSolution solve_unate_cover(const UnateCoverProblem& p,
                                const UnateCoverOptions& options,
                                const ExecContext& ctx) {
  check_problem("solve_unate_cover", p);
  StageScope stage(ctx, "unate_cover");
  // A row no column covers makes the table infeasible.
  const bool empty_row = std::any_of(p.rows.begin(), p.rows.end(),
                                     [](const Bitset& r) { return r.empty(); });
  const CoverSolution sol =
      empty_row ? CoverSolution{} : reduce_and_solve(p, options, stage.ctx());
  stage.add_items(sol.nodes_explored);
  stage.set_truncation(sol.truncation);
  // Per-component node/arena totals are deterministic (private budgets,
  // summed in component order), so they are fingerprint-safe.
  metric_add(ctx, "cover.nodes", sol.nodes_explored);
  metric_add(ctx, "cover.components", sol.components);
  metric_add(ctx, "cover.arena_allocs", sol.arena_allocs);
  metric_add(ctx, "cover.arena_reuses", sol.arena_reuses);
  metric_max(ctx, "cover.peak_arena_bytes", sol.peak_arena_bytes);
  return sol;
}

}  // namespace encodesat
