// Internal: the steps both covering engines share. Only covering/unate.cc,
// covering/binate.cc and the covering unit tests (tests/covering_test.cc)
// include this header. Each engine keeps its own table type, root
// reductions, component subproblems, search table layout, search
// reductions and branching, and counter and span names. Written once, here:
// the problem check, column weights, the column-dominance keep-scan, the
// component split, the per-component fan-out and merge, and the search core
// (SearchCore: each node's budget check, the MIS lower bound and the
// search's report).
#pragma once

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "covering/cover.h"
#include "util/bitset.h"
#include "util/exec.h"
#include "util/term_arena.h"
#include "util/thread_pool.h"

namespace encodesat {

/// Column c's weight: `weights[c]`, or 1 when `weights` is empty (unit
/// weights).
inline int column_weight(const std::vector<int>& weights, std::size_t c) {
  return weights.empty() ? 1 : weights[c];
}

/// Throws std::invalid_argument, naming `solver`, when `weights` is
/// non-empty with a size other than `num_columns`, when a weight is
/// negative (both searches prune on `cost >= best` and bound with the
/// cheapest column of a row, so they assume every weight is at least 0),
/// or when `rows_fit` is false: some row's universe differs from
/// `num_columns`.
inline void check_cover_problem(const char* solver, std::size_t num_columns,
                                const std::vector<int>& weights,
                                bool rows_fit) {
  if (!weights.empty() && weights.size() != num_columns)
    throw std::invalid_argument(std::string(solver) + ": weights has " +
                                std::to_string(weights.size()) +
                                " entries for " + std::to_string(num_columns) +
                                " columns");
  for (std::size_t c = 0; c < weights.size(); ++c)
    if (weights[c] < 0)
      throw std::invalid_argument(std::string(solver) + ": column " +
                                  std::to_string(c) + " has negative weight " +
                                  std::to_string(weights[c]));
  if (!rows_fit)
    throw std::invalid_argument(std::string(solver) +
                                ": row universe does not match num_columns");
}

/// Column dominance: a column is dominated when another column covers a
/// superset of its rows at no greater weight, and some optimal cover does
/// without it. `coverage[i]` is candidate i's row set and `weight(i)` its
/// weight. The scan takes the candidates by coverage size (largest first),
/// then weight (lightest first), then index, so a dominating column comes
/// before the columns it dominates, and keeps each one that no kept column
/// dominates; a candidate covering no row is dropped. Returns the kept
/// candidates in scan order.
template <class Weight>
std::vector<std::size_t> undominated_columns(
    const std::vector<Bitset>& coverage, Weight weight) {
  std::vector<std::size_t> size(coverage.size());
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < coverage.size(); ++i) {
    size[i] = coverage[i].count();
    if (size[i] > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (size[a] != size[b]) return size[a] > size[b];
    if (weight(a) != weight(b)) return weight(a) < weight(b);
    return a < b;
  });
  std::vector<std::size_t> kept;
  for (const std::size_t c : order)
    if (std::none_of(kept.begin(), kept.end(), [&](std::size_t k) {
          return weight(k) <= weight(c) &&
                 coverage[c].is_subset_of(coverage[k]);
        }))
      kept.push_back(c);
  return kept;
}

/// A table's independent components: rows that share no column can be
/// covered independently, and the union of the components' optima is an
/// optimum of the whole table. Components are numbered in column order, so
/// the split, and the merged answer, do not depend on scheduling.
struct ComponentSplit {
  std::vector<std::size_t> component;  ///< column -> its component
  std::vector<std::size_t> local;      ///< column -> its index within it
  std::vector<std::vector<std::size_t>> columns;  ///< component -> columns

  std::size_t size() const { return columns.size(); }
};

/// Union-find with path halving over the columns of each row; every row
/// must hold a column.
inline ComponentSplit split_components(std::size_t num_columns,
                                       const std::vector<Bitset>& rows) {
  std::vector<std::size_t> parent(num_columns);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const Bitset& row : rows) {
    const std::size_t first = find(row.first());
    row.for_each([&](std::size_t c) { parent[find(c)] = first; });
  }
  ComponentSplit split;
  split.component.resize(num_columns);
  split.local.resize(num_columns);
  std::vector<std::size_t> of_root(num_columns, num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    std::size_t& k = of_root[find(c)];
    if (k == num_columns) {
      k = split.size();
      split.columns.emplace_back();
    }
    split.component[c] = k;
    split.local[c] = split.columns[k].size();
    split.columns[k].push_back(c);
  }
  return split;
}

/// Runs `solve(k, sub_ctx)` for every component k of `split`, on ctx's
/// threads. Each component runs on one thread with the full node budget
/// and a private result slot, so the merged answer is the same at every
/// thread count (only a wall-clock deadline can tell them apart). The merge
/// goes in component order: it maps each component's columns through the
/// split and `column_map` (split column -> the caller's column), adds up
/// costs and search counters, and keeps the largest arena. A
/// proven-infeasible component is a certificate for the whole table; short
/// of one, a component that truncated without a cover makes the outcome
/// unknown, truncated and never infeasible.
template <class Solve>
CoverSolution solve_components(const ComponentSplit& split,
                               const std::vector<std::size_t>& column_map,
                               const ExecContext& ctx, Solve solve) {
  std::vector<CoverSolution> results(split.size());
  const ExecContext sub_ctx{ctx.budget, nullptr, 1, ctx.tracer, ctx.metrics};
  parallel_for(results.size(), ctx.num_threads,
               [&](std::size_t k) { results[k] = solve(k, sub_ctx); });

  CoverSolution sol;
  sol.feasible = sol.optimal = true;
  sol.cost = 0;
  bool proven_infeasible = false;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const CoverSolution& r = results[k];
    sol.nodes_explored += r.nodes_explored;
    sol.propagations += r.propagations;
    sol.prune_hits += r.prune_hits;
    sol.arena_allocs += r.arena_allocs;
    sol.arena_reuses += r.arena_reuses;
    sol.peak_arena_bytes = std::max(sol.peak_arena_bytes, r.peak_arena_bytes);
    if (sol.truncation == Truncation::kNone) sol.truncation = r.truncation;
    const bool truncated = r.truncation != Truncation::kNone;
    sol.optimal = sol.optimal && !truncated;
    if (!r.feasible) {
      sol.feasible = false;
      proven_infeasible = proven_infeasible || !truncated;
      continue;
    }
    sol.cost += r.cost;
    for (const std::size_t c : r.columns)
      sol.columns.push_back(column_map[split.columns[k][c]]);
  }
  if (!sol.feasible) {
    sol.optimal = false;
    sol.cost = -1;
    sol.columns.clear();
    if (proven_infeasible) sol.truncation = Truncation::kNone;
  }
  std::sort(sol.columns.begin(), sol.columns.end());
  sol.columns_after_reduction = column_map.size();
  sol.components = std::max<std::size_t>(results.size(), 1);
  return sol;
}

/// The per-node work of both branch-and-bound searches, whatever their
/// table: the node budget, the lower bound and the report. Each engine's
/// Search derives from it. Column sets live in `cols` and row sets in
/// `rows`; every node's sets come off their free lists, so the search
/// allocates no set per node, and their traffic is part of the report.
struct SearchCore {
  const std::vector<int>& weights;
  std::uint64_t max_nodes;
  ExecContext ctx;
  TermArena cols;
  TermArena rows;
  std::uint64_t nodes = 0;
  Truncation truncation = Truncation::kNone;  ///< the budget that stopped it

  SearchCore(const std::vector<int>& column_weights, std::uint64_t node_budget,
             const ExecContext& context, TermArena column_sets,
             TermArena row_sets)
      : weights(column_weights),
        max_nodes(node_budget),
        ctx(context),
        cols(std::move(column_sets)),
        rows(std::move(row_sets)) {}

  /// True once a budget has stopped the search.
  bool stopped() const { return truncation != Truncation::kNone; }

  /// Counts a node. Returns false, naming the budget in `truncation`, once
  /// the count passes `max_nodes` or ctx's shared budget has tripped: a
  /// cheap exhaustion flag every node (it catches a limit tripped by a
  /// sibling component's thread) and a clock poll on the first node and
  /// every 1024 nodes after it, so a search inside a serve request stays
  /// cancellable and deadline-bounded, and a pending cancellation stops it
  /// at its first node. Either way the best cover found so far stays valid.
  bool admit_node() {
    if (++nodes > max_nodes) {
      truncation = Truncation::kNodeLimit;
      return false;
    }
    if (ctx.exhausted() || ((nodes & 1023u) == 1 && !ctx.poll())) {
      truncation = ctx.reason();
      return false;
    }
    return true;
  }

  /// Greedy maximal-independent-set lower bound over open rows: `avail[i]`
  /// is row i's set of columns that can still cover it and `acount[i]` its
  /// size. Rows go shortest first (they are more likely independent and
  /// carry tighter bounds), ties by index, and each row sharing no column
  /// with the rows taken before it adds its cheapest column: any cover pays
  /// at least that much. `used`, an empty column set, collects the taken
  /// rows' columns.
  int lower_bound(const std::vector<TermRef>& avail,
                  const std::vector<std::uint32_t>& acount, TermRef used) {
    std::vector<std::size_t> order(avail.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (acount[a] != acount[b]) return acount[a] < acount[b];
      return a < b;
    });
    int bound = 0;
    for (const std::size_t i : order) {
      if (cols.intersects(avail[i], used)) continue;
      cols.or_into(used, avail[i]);
      int cheapest = std::numeric_limits<int>::max();
      cols.for_each(avail[i], [&](std::size_t c) {
        cheapest = std::min(cheapest, column_weight(weights, c));
      });
      bound += cheapest;
    }
    return bound;
  }

  /// Reports the search into `sol`: its nodes, the budget that stopped it
  /// and both arenas' traffic.
  void harvest(CoverSolution& sol) const {
    sol.nodes_explored = nodes;
    sol.truncation = truncation;
    sol.arena_allocs = cols.total_allocs() + rows.total_allocs();
    sol.arena_reuses = cols.total_reuses() + rows.total_reuses();
    sol.peak_arena_bytes = cols.peak_bytes() + rows.peak_bytes();
  }
};

}  // namespace encodesat
