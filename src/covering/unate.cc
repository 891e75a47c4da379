#include "covering/unate.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>

#include "covering/shared.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"

namespace encodesat {

namespace {

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
// The column sets are the immutable row→columns table, the exclusion set
// and the per-node available-column sets; the one row set is the
// covered-rows mask. Each solve() frame owns the refs it receives and the
// per-node scratch it allocates; TermGuard returns them to the free list on
// every exit path, so the arena high-water mark is O(depth · active rows).
//
// `avail_count[r]` is |row r \ excluded| at the node being solved. Only the
// exclude branch grows the excluded set: it lowers the count of every row
// holding the excluded column and restores it on return, so no node counts
// a column set.
//
// `col_rows` holds each column's row set, at the row arena's stride, so
// that covering a column is one OR and the exclude branch walks only the
// column's rows. It lives outside both arenas: their counters are the
// search's own.
struct Search : SearchCore {
  const UnateCoverProblem& p;
  std::vector<TermRef> row_cols;  // row -> its column set (immutable)
  std::vector<std::uint32_t> avail_count;
  std::vector<std::uint64_t> col_rows;  // column c's rows at c * rows.words()
  int best_cost = std::numeric_limits<int>::max();
  std::vector<std::size_t> best_columns;

  Search(const UnateCoverProblem& problem, std::uint64_t max_nodes,
         const ExecContext& context)
      : SearchCore(problem.weights, max_nodes, context,
                   TermArena(problem.num_columns, problem.rows.size() + 64),
                   TermArena(problem.rows.size(), 64)),
        p(problem) {
    row_cols.reserve(p.rows.size());
    avail_count.reserve(p.rows.size());
    col_rows.assign(p.num_columns * rows.words(), 0);
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      row_cols.push_back(cols.from_bitset(p.rows[r]));
      avail_count.push_back(static_cast<std::uint32_t>(p.rows[r].count()));
      p.rows[r].for_each([&](std::size_t c) {
        col_rows[c * rows.words() + r / 64] |= std::uint64_t{1} << (r % 64);
      });
    }
  }

  const std::uint64_t* rows_of(std::size_t c) const {
    return &col_rows[c * rows.words()];
  }

  void record(const std::vector<std::size_t>& selected, int cost) {
    if (cost < best_cost) {
      best_cost = cost;
      best_columns = selected;
    }
  }

  // Marks every row holding column c covered.
  void cover(TermRef covered, std::size_t c) {
    std::uint64_t* w = rows.data(covered);
    const std::uint64_t* cw = rows_of(c);
    for (std::size_t k = 0; k < rows.words(); ++k) w[k] |= cw[k];
  }

  // Calls f(q) for each row q holding column c.
  template <class F>
  void for_each_row(std::size_t c, F&& f) const {
    const std::uint64_t* cw = rows_of(c);
    for (std::size_t k = 0; k < rows.words(); ++k)
      for (std::uint64_t w = cw[k]; w != 0; w &= w - 1)
        f(k * 64 + static_cast<std::size_t>(std::countr_zero(w)));
  }

  // Takes ownership of `excluded` (cols) and `covered` (rows).
  void solve(TermRef excluded, TermRef covered,
             std::vector<std::size_t> selected, int cost) {
    TermGuard cguard(cols);
    TermGuard rguard(rows);
    cguard.track(excluded);
    rguard.track(covered);
    if (stopped() || !admit_node()) return;

    // --- Essential columns ----------------------------------------------
    // One pass in row order reaches the fixpoint: counts are fixed inside a
    // node and covering only closes rows, so a row still open after the
    // pass had its count when the pass reached it.
    const TermRef tmp = cguard.track(cols.alloc());
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      if (rows.test(covered, r)) continue;
      if (avail_count[r] == 0) return;  // row uncoverable: dead branch
      if (avail_count[r] == 1) {
        cols.andnot_of(tmp, row_cols[r], excluded);
        const std::size_t c = cols.first(tmp);
        selected.push_back(c);
        cost += column_weight(p.weights, c);
        if (cost >= best_cost) return;
        cover(covered, c);
      }
    }

    // Collect the open rows' available column sets, in row order.
    std::vector<TermRef> avail;
    std::vector<std::uint32_t> acount;
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      if (!rows.test(covered, r)) {
        avail.push_back(cguard.track(cols.alloc_andnot(row_cols[r], excluded)));
        acount.push_back(avail_count[r]);
      }
    }
    if (avail.empty()) {
      record(selected, cost);
      return;
    }

    // Row dominance: if avail[i] ⊆ avail[j], covering row i covers row j,
    // so row j can be dropped. The keep-scan takes the rows by (count,
    // index) and keeps each row no kept row is a subset of: the minimal
    // sets, and the lowest index among equal sets. Quadratic in the worst
    // case — only worth it on smallish sets.
    if (avail.size() <= 512) {
      std::vector<std::uint32_t> order(avail.size());
      std::iota(order.begin(), order.end(), std::uint32_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return acount[a] < acount[b];
                       });
      std::vector<std::uint32_t> kept;
      for (const std::uint32_t i : order)
        if (std::none_of(kept.begin(), kept.end(), [&](std::uint32_t k) {
              return cols.is_subset(avail[k], avail[i]);
            }))
          kept.push_back(i);
      std::sort(kept.begin(), kept.end());  // back to row order
      for (std::size_t n = 0; n < kept.size(); ++n) {
        avail[n] = avail[kept[n]];
        acount[n] = acount[kept[n]];
      }
      avail.resize(kept.size());
      acount.resize(kept.size());
    }

    if (cost + lower_bound(avail, acount, cguard.track(cols.alloc())) >=
        best_cost)
      return;

    // Branch on the most-covering column of the shortest row.
    std::size_t pivot_row = 0;
    for (std::size_t i = 1; i < avail.size(); ++i)
      if (acount[i] < acount[pivot_row]) pivot_row = i;

    std::size_t branch_col = p.num_columns;
    std::size_t best_score = 0;
    cols.for_each(avail[pivot_row], [&](std::size_t c) {
      std::size_t score = 0;
      for (std::size_t i = 0; i < avail.size(); ++i)
        if (cols.test(avail[i], c)) ++score;
      if (branch_col == p.num_columns || score > best_score ||
          (score == best_score && c < branch_col)) {
        best_score = score;
        branch_col = c;
      }
    });
    assert(branch_col < p.num_columns);

    // Branch 1: select the column (no count changes).
    {
      const TermRef cov = rows.clone(covered);
      cover(cov, branch_col);
      auto sel = selected;
      sel.push_back(branch_col);
      solve(cols.clone(excluded), cov, std::move(sel),
            cost + column_weight(p.weights, branch_col));
    }
    // Branch 2: exclude the column; it is available (it came from an
    // available set), so each row holding it has one column less until the
    // branch returns.
    {
      const TermRef exc = cols.clone(excluded);
      cols.set(exc, branch_col);
      for_each_row(branch_col, [&](std::size_t q) { --avail_count[q]; });
      solve(exc, rows.clone(covered), std::move(selected), cost);
      for_each_row(branch_col, [&](std::size_t q) { ++avail_count[q]; });
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
      const double ratio = static_cast<double>(cover_count[c]) /
                           column_weight(p.weights, c);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = c;
      }
    }
    if (best == p.num_columns) return sol;  // cannot make progress
    sol.columns.push_back(best);
    cost += column_weight(p.weights, best);
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
    Search search(q, options.max_nodes, ctx);
    search.best_cost = greedy.cost;
    search.best_columns = greedy.columns;
    search.solve(search.cols.alloc(), search.rows.alloc(), {}, 0);
    search.harvest(sol);
    sol.columns = search.best_columns;
    sol.cost = search.best_cost;
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
    kept = undominated_columns(coverage, [&](std::size_t c) {
      return column_weight(p.weights, c);
    });
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
