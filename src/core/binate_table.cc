#include "core/binate_table.h"

#include <cassert>
#include <stdexcept>

#include "core/generate.h"

namespace encodesat {

namespace {

bool column_covers_dichotomy(std::uint64_t pattern, const Dichotomy& d) {
  // All left-block symbols must share one bit and all right-block symbols
  // the other (either orientation, Definition 3.4).
  bool left0 = true, left1 = true, right0 = true, right1 = true;
  d.left.for_each([&](std::size_t s) {
    if ((pattern >> s) & 1u)
      left0 = false;
    else
      left1 = false;
  });
  d.right.for_each([&](std::size_t s) {
    if ((pattern >> s) & 1u)
      right0 = false;
    else
      right1 = false;
  });
  return (left0 && right1) || (left1 && right0);
}

bool column_violates_outputs(std::uint64_t pattern, const ConstraintSet& cs) {
  auto bit = [&](std::uint32_t s) -> std::uint64_t {
    return (pattern >> s) & 1u;
  };
  for (const auto& d : cs.dominances())
    if (bit(d.dominator) == 0 && bit(d.dominated) == 1) return true;
  for (const auto& d : cs.disjunctives()) {
    std::uint64_t orv = 0;
    for (auto c : d.children) orv |= bit(c);
    if (orv != bit(d.parent)) return true;
  }
  for (const auto& e : cs.extended_disjunctives()) {
    if (bit(e.parent) == 0) continue;
    bool some = false;
    for (const auto& conj : e.conjunctions) {
      bool all = true;
      for (auto c : conj)
        if (bit(c) == 0) {
          all = false;
          break;
        }
      if (all) {
        some = true;
        break;
      }
    }
    if (!some) return true;
  }
  return false;
}

}  // namespace

BinateTable build_binate_table(const ConstraintSet& cs) {
  const std::uint32_t n = cs.num_symbols();
  if (n > 20)
    throw std::invalid_argument(
        "binate table construction is exponential; refusing n > 20 symbols");
  if (n < 2)
    throw std::invalid_argument("binate table needs at least two symbols");

  BinateTable table;
  for (std::uint64_t p = 1; p + 1 < (std::uint64_t{1} << n); ++p)
    table.patterns.push_back(p);

  table.problem.num_columns = table.patterns.size();

  // Unate rows from face and uniqueness dichotomies. The generated set
  // contains both orientations of each dichotomy; they have identical
  // coverage under Definition 3.4, so keep one of each pair.
  const auto initial = generate_initial_dichotomies(cs);
  std::vector<Dichotomy> rows_src;
  for (const auto& i : initial) {
    bool dup = false;
    for (const auto& r : rows_src)
      if (r.covers(i.dichotomy) && i.dichotomy.covers(r)) {
        dup = true;
        break;
      }
    if (!dup) rows_src.push_back(i.dichotomy);
  }
  for (const auto& d : rows_src) {
    BinateRow row{Bitset(table.problem.num_columns),
                  Bitset(table.problem.num_columns)};
    for (std::size_t c = 0; c < table.patterns.size(); ++c)
      if (column_covers_dichotomy(table.patterns[c], d)) row.pos.set(c);
    table.problem.rows.push_back(std::move(row));
  }
  table.num_unate_rows = table.problem.rows.size();

  // Negative rows forbidding output-violating columns.
  for (std::size_t c = 0; c < table.patterns.size(); ++c) {
    if (!column_violates_outputs(table.patterns[c], cs)) continue;
    BinateRow row{Bitset(table.problem.num_columns),
                  Bitset(table.problem.num_columns)};
    row.neg.set(c);
    table.problem.rows.push_back(std::move(row));
    ++table.num_negative_rows;
  }
  return table;
}

SolveOutcome binate_table_encode(const ConstraintSet& cs,
                                 const BinateCoverOptions& opts,
                                 const ExecContext& ctx) {
  SolveOutcome res;
  const BinateTable table = build_binate_table(cs);
  const CoverSolution sol = solve_binate_cover(table.problem, opts, ctx);
  res.nodes_explored = sol.nodes_explored;
  res.truncation = sol.truncation;
  if (!sol.feasible) {
    res.status = sol.proven_infeasible() ? SolveOutcome::Status::kInfeasible
                                         : SolveOutcome::Status::kTruncated;
    return res;
  }
  assert(sol.cost >= 0);
  res.status = SolveOutcome::Status::kEncoded;
  res.minimal = sol.optimal;
  res.encoding.bits = static_cast<int>(sol.columns.size());
  res.encoding.codes.assign(cs.num_symbols(), 0);
  for (std::size_t j = 0; j < sol.columns.size(); ++j) {
    const std::uint64_t pattern = table.patterns[sol.columns[j]];
    for (std::uint32_t s = 0; s < cs.num_symbols(); ++s)
      if ((pattern >> s) & 1u)
        res.encoding.codes[s] |= std::uint64_t{1} << j;
  }
  return res;
}

}  // namespace encodesat
