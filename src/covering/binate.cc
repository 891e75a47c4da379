#include "covering/binate.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "covering/shared.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"

namespace encodesat {

void BinateCoverProblem::add_row(const std::vector<std::size_t>& pos_cols,
                                 const std::vector<std::size_t>& neg_cols) {
  for (std::size_t c : pos_cols)
    if (c >= num_columns)
      throw std::invalid_argument(
          "BinateCoverProblem::add_row: positive column index " +
          std::to_string(c) + " >= num_columns " +
          std::to_string(num_columns));
  for (std::size_t c : neg_cols)
    if (c >= num_columns)
      throw std::invalid_argument(
          "BinateCoverProblem::add_row: negative column index " +
          std::to_string(c) + " >= num_columns " +
          std::to_string(num_columns));
  BinateRow row{Bitset(num_columns), Bitset(num_columns)};
  for (std::size_t c : pos_cols) row.pos.set(c);
  for (std::size_t c : neg_cols) row.neg.set(c);
  rows.push_back(std::move(row));
}

namespace {

// --- root reduction --------------------------------------------------------

// Polynomial presolve applied once before the search: unit rows (a clause
// with one free literal forces it), pure-literal columns (a column in no
// positive literal is never worth selecting), row dominance (clause i a
// sub-clause of clause j drops j) and column dominance on the
// pure-positive subtable (both columns only ever positive, one covers a
// superset of the other's rows at no greater weight). Every step preserves
// at least one optimal solution; a row running out of literals here is a
// proven infeasibility certificate, not a truncation.
struct RootReduction {
  bool infeasible = false;
  Bitset assigned{0};
  Bitset value{0};
  int forced_cost = 0;
  std::uint64_t propagations = 0;
  std::vector<std::size_t> live_rows;  // indexes into p.rows
};

bool row_satisfied_root(const BinateRow& r, const Bitset& assigned,
                        const Bitset& value) {
  Bitset t = r.pos;
  t &= value;
  if (t.any()) return true;
  Bitset f = r.neg;
  f &= assigned;
  f.subtract(value);
  return f.any();
}

RootReduction reduce_root(const BinateCoverProblem& p) {
  RootReduction red;
  red.assigned = Bitset(p.num_columns);
  red.value = Bitset(p.num_columns);
  std::vector<bool> dead(p.rows.size(), false);

  // Tautological rows (a column in both pos and neg) are satisfied by any
  // total assignment — drop them up front.
  for (std::size_t r = 0; r < p.rows.size(); ++r) {
    Bitset both = p.rows[r].pos;
    both &= p.rows[r].neg;
    if (both.any()) dead[r] = true;
  }

  bool changed = true;
  while (changed && !red.infeasible) {
    changed = false;

    // Unit propagation to fixpoint.
    bool prop = true;
    while (prop && !red.infeasible) {
      prop = false;
      for (std::size_t r = 0; r < p.rows.size(); ++r) {
        if (dead[r]) continue;
        if (row_satisfied_root(p.rows[r], red.assigned, red.value)) {
          dead[r] = true;
          continue;
        }
        Bitset fp = p.rows[r].pos;
        fp.subtract(red.assigned);
        Bitset fn = p.rows[r].neg;
        fn.subtract(red.assigned);
        const std::size_t nfree = fp.count() + fn.count();
        if (nfree == 0) {
          red.infeasible = true;  // certificate: clause with no literal left
          break;
        }
        if (nfree == 1) {
          ++red.propagations;
          if (fp.any()) {
            const std::size_t c = fp.first();
            red.assigned.set(c);
            red.value.set(c);
            red.forced_cost += column_weight(p.weights, c);
          } else {
            red.assigned.set(fn.first());
          }
          dead[r] = true;
          prop = changed = true;
        }
      }
    }
    if (red.infeasible) break;

    // Pure-literal columns: a free column in no live row's positive part
    // never pays for itself — fix it to 0, satisfying its negative rows.
    {
      Bitset in_pos(p.num_columns);
      for (std::size_t r = 0; r < p.rows.size(); ++r)
        if (!dead[r]) {
          Bitset fp = p.rows[r].pos;
          fp.subtract(red.assigned);
          in_pos |= fp;
        }
      for (std::size_t c = 0; c < p.num_columns; ++c) {
        if (red.assigned.test(c) || in_pos.test(c)) continue;
        bool used = false;
        for (std::size_t r = 0; r < p.rows.size(); ++r)
          if (!dead[r] && p.rows[r].neg.test(c)) {
            used = true;
            break;
          }
        red.assigned.set(c);
        if (used) {
          ++red.propagations;
          changed = true;
        }
      }
    }

    // Collect live rows and their free literal sets once for the two
    // dominance passes.
    std::vector<std::size_t> live;
    std::vector<Bitset> fpos, fneg;
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      if (dead[r]) continue;
      if (row_satisfied_root(p.rows[r], red.assigned, red.value)) {
        dead[r] = true;
        continue;
      }
      Bitset fp = p.rows[r].pos;
      fp.subtract(red.assigned);
      Bitset fn = p.rows[r].neg;
      fn.subtract(red.assigned);
      live.push_back(r);
      fpos.push_back(std::move(fp));
      fneg.push_back(std::move(fn));
    }

    // Row dominance: clause i ⊆ clause j (as free literal sets) makes j
    // redundant. Quadratic — only worth it on smallish tables.
    if (live.size() <= 1024) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (dead[live[i]]) continue;
        for (std::size_t j = 0; j < live.size(); ++j) {
          if (i == j || dead[live[j]]) continue;
          if (!fpos[i].is_subset_of(fpos[j]) || !fneg[i].is_subset_of(fneg[j]))
            continue;
          const bool equal = fpos[i].count() == fpos[j].count() &&
                             fneg[i].count() == fneg[j].count();
          if (equal && i > j) continue;  // keep the earlier of duplicates
          dead[live[j]] = true;
          changed = true;
        }
      }
    }

    // Column dominance on the pure-positive subtable: among free columns
    // that appear in no live negative literal, c is dominated by d when d
    // covers every live row c covers at no greater weight — selecting c
    // can always be replaced by selecting d, so fix c to 0.
    {
      std::vector<std::size_t> lrows;
      for (std::size_t i = 0; i < live.size(); ++i)
        if (!dead[live[i]]) lrows.push_back(i);
      Bitset impure(p.num_columns);
      for (std::size_t i : lrows) impure |= fneg[i];
      std::vector<std::size_t> pure;
      std::vector<Bitset> coverage;
      for (std::size_t c = 0; c < p.num_columns; ++c) {
        if (red.assigned.test(c) || impure.test(c)) continue;
        Bitset cov(lrows.size());
        for (std::size_t k = 0; k < lrows.size(); ++k)
          if (fpos[lrows[k]].test(c)) cov.set(k);
        if (!cov.any()) continue;
        pure.push_back(c);
        coverage.push_back(std::move(cov));
      }
      if (!pure.empty() && pure.size() <= 4096) {
        std::vector<bool> kept(pure.size(), false);
        for (const std::size_t i : undominated_columns(
                 coverage, [&](std::size_t i) {
                   return column_weight(p.weights, pure[i]);
                 }))
          kept[i] = true;
        for (std::size_t i = 0; i < pure.size(); ++i)
          if (!kept[i]) {
            red.assigned.set(pure[i]);  // value stays 0: excluded
            ++red.propagations;
            changed = true;
          }
      }
    }
  }

  if (!red.infeasible)
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      if (!dead[r] && !row_satisfied_root(p.rows[r], red.assigned, red.value))
        red.live_rows.push_back(r);
  return red;
}

// --- per-component branch-and-bound ----------------------------------------

// Explicit-stack DPLL over one component. The column sets are the per-row
// free-literal tables and the per-frame assigned/value pair; the row sets
// are the satisfied-row mask and the immutable column→rows occurrence
// tables used for O(words) satisfaction updates. Frames own their refs;
// every exit path returns them to the free list, and the recursion depth
// is bounded by the explicit stack, not the call stack.
struct Search : SearchCore {
  const BinateCoverProblem& q;
  std::vector<TermRef> row_pos, row_neg;  // row -> literal sets (immutable)
  std::vector<TermRef> occ_pos, occ_neg;  // col -> rows containing it
  std::uint64_t propagations = 0;
  std::uint64_t prune_hits = 0;
  int best_cost = std::numeric_limits<int>::max();
  bool found = false;
  std::vector<std::size_t> best_columns;

  struct Frame {
    TermRef assigned;   // cols
    TermRef value;      // cols, invariant: value ⊆ assigned
    TermRef satisfied;  // rows
    int cost;
  };
  std::vector<Frame> stack;

  Search(const BinateCoverProblem& problem, std::uint64_t max_nodes,
         const ExecContext& context)
      : SearchCore(
            problem.weights, max_nodes, context,
            TermArena(problem.num_columns, 2 * problem.rows.size() + 64),
            TermArena(problem.rows.size(), 2 * problem.num_columns + 64)),
        q(problem) {
    row_pos.reserve(q.rows.size());
    row_neg.reserve(q.rows.size());
    for (const BinateRow& r : q.rows) {
      row_pos.push_back(cols.from_bitset(r.pos));
      row_neg.push_back(cols.from_bitset(r.neg));
    }
    occ_pos.reserve(q.num_columns);
    occ_neg.reserve(q.num_columns);
    for (std::size_t c = 0; c < q.num_columns; ++c) {
      const TermRef op = rows.alloc();
      const TermRef on = rows.alloc();
      for (std::size_t r = 0; r < q.rows.size(); ++r) {
        if (q.rows[r].pos.test(c)) rows.set(op, r);
        if (q.rows[r].neg.test(c)) rows.set(on, r);
      }
      occ_pos.push_back(op);
      occ_neg.push_back(on);
    }
  }

  void release_frame(const Frame& f) {
    cols.release(f.assigned);
    cols.release(f.value);
    rows.release(f.satisfied);
  }

  void assign(Frame& f, std::size_t c, bool select) {
    cols.set(f.assigned, c);
    if (select) {
      cols.set(f.value, c);
      f.cost += column_weight(q.weights, c);
      rows.or_into(f.satisfied, occ_pos[c]);
    } else {
      rows.or_into(f.satisfied, occ_neg[c]);
    }
  }

  void run() {
    stack.push_back(
        Frame{cols.alloc(), cols.alloc(), rows.alloc(), /*cost=*/0});
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      process(f);
      if (stopped()) break;
    }
    for (const Frame& f : stack) release_frame(f);
    stack.clear();
  }

  void process(Frame f) {
    if (!admit_node()) {
      release_frame(f);
      return;
    }
    if (f.cost >= best_cost) {
      ++prune_hits;
      release_frame(f);
      return;
    }

    TermGuard cguard(cols);
    const TermRef fp = cguard.track(cols.alloc());
    const TermRef fn = cguard.track(cols.alloc());

    // Unit propagation to fixpoint; shared by both children below.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t r = 0; r < q.rows.size(); ++r) {
        if (rows.test(f.satisfied, r)) continue;
        cols.andnot_of(fp, row_pos[r], f.assigned);
        cols.andnot_of(fn, row_neg[r], f.assigned);
        const std::size_t np = cols.count(fp);
        const std::size_t nfree = np + cols.count(fn);
        if (nfree == 0) {  // conflict: dead branch
          release_frame(f);
          return;
        }
        if (nfree == 1) {
          ++propagations;
          assign(f, np == 1 ? cols.first(fp) : cols.first(fn), np == 1);
          if (f.cost >= best_cost) {
            ++prune_hits;
            release_frame(f);
            return;
          }
          changed = true;
        }
      }
    }

    // One pass over the unsatisfied rows: pick the pivot (fewest free
    // literals) and collect the rows whose free literals are all positive
    // for the bound (a row with a free negative literal can be satisfied
    // for free).
    std::vector<TermRef> avail;
    std::vector<std::uint32_t> acount;
    TermGuard aguard(cols);
    std::size_t pivot = q.rows.size();
    std::size_t pivot_free = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < q.rows.size(); ++r) {
      if (rows.test(f.satisfied, r)) continue;
      cols.andnot_of(fp, row_pos[r], f.assigned);
      cols.andnot_of(fn, row_neg[r], f.assigned);
      const std::size_t np = cols.count(fp);
      const std::size_t nn = cols.count(fn);
      if (np + nn < pivot_free) {
        pivot_free = np + nn;
        pivot = r;
      }
      if (nn == 0) {
        avail.push_back(aguard.track(cols.clone(fp)));
        acount.push_back(static_cast<std::uint32_t>(np));
      }
    }
    if (pivot == q.rows.size()) {
      // Every row satisfied; unassigned columns default to unselected.
      found = true;
      best_cost = f.cost;
      best_columns.clear();
      cols.for_each(f.value,
                    [&](std::size_t c) { best_columns.push_back(c); });
      release_frame(f);
      return;
    }

    if (f.cost + lower_bound(avail, acount, cguard.track(cols.alloc())) >=
        best_cost) {
      ++prune_hits;
      release_frame(f);
      return;
    }

    // Branch on a free literal of the pivot row, cost-free direction
    // (leave the column unselected) first.
    cols.andnot_of(fn, row_neg[pivot], f.assigned);
    std::size_t var;
    if (!cols.empty(fn)) {
      var = cols.first(fn);
    } else {
      cols.andnot_of(fp, row_pos[pivot], f.assigned);
      assert(!cols.empty(fp));
      var = cols.first(fp);
    }

    // Push select first, exclude second: the stack pops exclude (var = 0)
    // before select, matching the cost-free-first exploration order.
    Frame select{cols.clone(f.assigned), cols.clone(f.value),
                 rows.clone(f.satisfied), f.cost};
    assign(select, var, /*select=*/true);
    stack.push_back(select);
    assign(f, var, /*select=*/false);  // f's refs transfer to this child
    stack.push_back(f);
  }
};

// One component's search; `columns` are component-local and `truncation`
// names the budget that stopped it short of exhaustion.
CoverSolution solve_component(const BinateCoverProblem& q,
                              const BinateCoverOptions& options,
                              const ExecContext& ctx) {
  TRACE_SCOPE(ctx, "binate_component");
  CoverSolution out;
  Search search(q, options.max_nodes, ctx);
  search.run();
  search.harvest(out);
  out.feasible = search.found;
  out.columns = std::move(search.best_columns);
  if (search.found) out.cost = search.best_cost;
  out.propagations = search.propagations;
  out.prune_hits = search.prune_hits;
  return out;
}

// Root reduction, then one search per independent component of the
// residual table; the root's forced columns join the merged cover.
CoverSolution reduce_and_solve(const BinateCoverProblem& p,
                               const BinateCoverOptions& options,
                               const ExecContext& ctx) {
  RootReduction red;
  {
    TRACE_SCOPE(ctx, "binate_reduce");
    red = reduce_root(p);
  }
  if (red.infeasible) {
    // Certificate, not a budget artifact: feasible=false, truncation=kNone.
    CoverSolution sol;
    sol.propagations = red.propagations;
    return sol;
  }

  // Residual problem over the free columns of the live rows, renumbered.
  std::vector<std::size_t> column_map;  // residual column -> original
  std::vector<std::size_t> residual_of(p.num_columns, p.num_columns);
  std::vector<Bitset> free(red.live_rows.size());
  for (std::size_t i = 0; i < free.size(); ++i) {
    free[i] = p.rows[red.live_rows[i]].pos;
    free[i] |= p.rows[red.live_rows[i]].neg;
    free[i].subtract(red.assigned);
    free[i].for_each([&](std::size_t c) {
      if (residual_of[c] == p.num_columns) {
        residual_of[c] = column_map.size();
        column_map.push_back(c);
      }
    });
  }
  std::vector<Bitset> rows(free.size(), Bitset(column_map.size()));
  for (std::size_t i = 0; i < free.size(); ++i)
    free[i].for_each([&](std::size_t c) { rows[i].set(residual_of[c]); });

  const ComponentSplit split = split_components(column_map.size(), rows);
  std::vector<BinateCoverProblem> subs(split.size());
  for (std::size_t k = 0; k < split.size(); ++k) {
    subs[k].num_columns = split.columns[k].size();
    if (!p.weights.empty())
      for (const std::size_t c : split.columns[k])
        subs[k].weights.push_back(p.weights[column_map[c]]);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    BinateCoverProblem& sub = subs[split.component[rows[i].first()]];
    const BinateRow& src = p.rows[red.live_rows[i]];
    BinateRow local{Bitset(sub.num_columns), Bitset(sub.num_columns)};
    rows[i].for_each([&](std::size_t c) {
      if (src.pos.test(column_map[c])) local.pos.set(split.local[c]);
      if (src.neg.test(column_map[c])) local.neg.set(split.local[c]);
    });
    sub.rows.push_back(std::move(local));
  }
  CoverSolution sol = solve_components(
      split, column_map, ctx, [&](std::size_t k, const ExecContext& sub_ctx) {
        return solve_component(subs[k], options, sub_ctx);
      });
  sol.propagations += red.propagations;
  if (sol.feasible) {
    sol.cost += red.forced_cost;
    red.value.for_each([&](std::size_t c) { sol.columns.push_back(c); });
    std::sort(sol.columns.begin(), sol.columns.end());
  }
  return sol;
}

void report_metrics(const ExecContext& ctx, const CoverSolution& sol) {
  // Per-component totals are deterministic (private node budgets, summed
  // in component order), so they are fingerprint-safe.
  metric_add(ctx, "cover.binate.nodes", sol.nodes_explored);
  metric_add(ctx, "cover.binate.components", sol.components);
  metric_add(ctx, "cover.binate.propagations", sol.propagations);
  metric_add(ctx, "cover.binate.prune_hits", sol.prune_hits);
  metric_add(ctx, "cover.binate.arena_allocs", sol.arena_allocs);
  metric_add(ctx, "cover.binate.arena_reuses", sol.arena_reuses);
  metric_max(ctx, "cover.binate.peak_arena_bytes", sol.peak_arena_bytes);
}

}  // namespace

CoverSolution solve_binate_cover(const BinateCoverProblem& p,
                                 const BinateCoverOptions& options,
                                 const ExecContext& ctx) {
  check_cover_problem(
      "solve_binate_cover", p.num_columns, p.weights,
      std::all_of(p.rows.begin(), p.rows.end(), [&](const BinateRow& r) {
        return r.pos.size() == p.num_columns && r.neg.size() == p.num_columns;
      }));
  StageScope stage(ctx, "binate_cover");
  CoverSolution sol;
  // A budget that is already exhausted (or a pending cancellation) stops
  // before any work — truncated, never "infeasible".
  if (stage.ctx().poll()) {
    sol = reduce_and_solve(p, options, stage.ctx());
  } else {
    sol.truncation = stage.ctx().reason();
  }
  stage.add_items(sol.nodes_explored);
  stage.set_truncation(sol.truncation);
  report_metrics(ctx, sol);
  return sol;
}

}  // namespace encodesat
