// Internal: the steps both covering engines share. Only covering/unate.cc
// and covering/binate.cc include this header. Each engine keeps its own
// table type, root reductions, component subproblems, search, and counter
// and span names; the problem check, the column-dominance keep-scan, the
// component split and the per-component fan-out and merge are written
// once, here.
#pragma once

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "covering/cover.h"
#include "util/bitset.h"
#include "util/exec.h"
#include "util/thread_pool.h"

namespace encodesat {

/// Throws std::invalid_argument, naming `solver`, when `weights` is
/// non-empty with a size other than `num_columns`, or when `rows_fit` is
/// false: some row's universe differs from `num_columns`.
inline void check_cover_problem(const char* solver, std::size_t num_columns,
                                const std::vector<int>& weights,
                                bool rows_fit) {
  if (!weights.empty() && weights.size() != num_columns)
    throw std::invalid_argument(std::string(solver) + ": weights has " +
                                std::to_string(weights.size()) +
                                " entries for " + std::to_string(num_columns) +
                                " columns");
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
  sol.truncated = sol.truncation != Truncation::kNone;
  return sol;
}

}  // namespace encodesat
