#include "core/extensions.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/generate.h"
#include "core/output_rules.h"
#include "core/pipelines.h"
#include "obs/counters.h"

namespace encodesat {

namespace {

// Totalized column: bit per symbol, left block -> 0, everything else -> 1.
std::uint64_t totalize(const Dichotomy& d, std::uint32_t n) {
  std::uint64_t pattern = 0;
  for (std::uint32_t s = 0; s < n; ++s)
    if (!d.in_left(s)) pattern |= std::uint64_t{1} << s;
  return pattern;
}

bool pattern_bit(std::uint64_t pattern, std::uint32_t s) {
  return (pattern >> s) & 1u;
}

// Exact output-constraint check on a concrete (total) column.
bool pattern_valid(std::uint64_t pattern, const ConstraintSet& cs) {
  for (const auto& d : cs.dominances())
    if (!pattern_bit(pattern, d.dominator) && pattern_bit(pattern, d.dominated))
      return false;
  for (const auto& d : cs.disjunctives()) {
    bool orv = false;
    for (auto c : d.children) orv = orv || pattern_bit(pattern, c);
    if (orv != pattern_bit(pattern, d.parent)) return false;
  }
  for (const auto& e : cs.extended_disjunctives()) {
    if (!pattern_bit(pattern, e.parent)) continue;
    bool some = false;
    for (const auto& conj : e.conjunctions) {
      bool all = true;
      for (auto c : conj)
        if (!pattern_bit(pattern, c)) {
          all = false;
          break;
        }
      if (all) {
        some = true;
        break;
      }
    }
    if (!some) return false;
  }
  return true;
}

// True if the column separates the dichotomy's blocks (all-left one bit,
// all-right the other) — exact coverage on totalized columns.
bool pattern_covers(std::uint64_t pattern, const Dichotomy& d) {
  bool left0 = true, left1 = true, right0 = true, right1 = true;
  d.left.for_each([&](std::size_t s) {
    if (pattern_bit(pattern, static_cast<std::uint32_t>(s)))
      left0 = false;
    else
      left1 = false;
  });
  d.right.for_each([&](std::size_t s) {
    if (pattern_bit(pattern, static_cast<std::uint32_t>(s)))
      right0 = false;
    else
      right1 = false;
  });
  return (left0 && right1) || (left1 && right0);
}

// True if in this column the face members all share a bit and t has the
// opposite bit (t is cut away from the face by this coordinate).
bool pattern_separates_from_face(std::uint64_t pattern,
                                 const std::vector<std::uint32_t>& members,
                                 std::uint32_t t) {
  bool all0 = true, all1 = true;
  for (auto m : members) {
    if (pattern_bit(pattern, m))
      all0 = false;
    else
      all1 = false;
  }
  if (all0) return pattern_bit(pattern, t);
  if (all1) return !pattern_bit(pattern, t);
  return false;
}

}  // namespace

SolveOutcome encode_with_extensions(const ConstraintSet& cs,
                                    const ExtensionEncodeOptions& opts,
                                    const ExecContext& ctx) {
  const std::uint32_t n = cs.num_symbols();
  if (n > 64)
    throw std::invalid_argument(
        "extension pipeline supports at most 64 symbols (one bit per "
        "symbol in a 64-bit column); got " +
        std::to_string(n));
  StageScope stage(ctx, "extensions");
  SolveOutcome res;

  // Candidate dichotomies: valid maximally raised initial set + splitter
  // enrichments for the distance-2 pairs + intruder enrichments for the
  // non-face constraints + the primes of all of those.
  // Distance-2 needs two *distinct* columns separating a pair; the face and
  // uniqueness dichotomies alone may raise into a single separating shape,
  // so for each constrained pair we seed separators with every third symbol
  // placed on each side (tests/oracle_extensions_test.cc bounds the
  // remaining incompleteness of this candidate pool).
  const auto initial = generate_initial_dichotomies(cs);
  std::vector<Dichotomy> seeds;
  for (const auto& i : initial) seeds.push_back(i.dichotomy);
  for (const auto& d2 : cs.distance2s()) {
    for (std::uint32_t t = 0; t < n; ++t) {
      if (t == d2.a || t == d2.b) continue;
      seeds.push_back(Dichotomy::make(n, {d2.a, t}, {d2.b}));
      seeds.push_back(Dichotomy::make(n, {d2.a}, {d2.b, t}));
      seeds.push_back(Dichotomy::make(n, {d2.b, t}, {d2.a}));
      seeds.push_back(Dichotomy::make(n, {d2.b}, {d2.a, t}));
    }
    seeds.push_back(Dichotomy::make(n, {d2.a}, {d2.b}));
    seeds.push_back(Dichotomy::make(n, {d2.b}, {d2.a}));
  }
  // Non-face needs an intruder t kept *inside* the face of M: every
  // selected column must keep t on the same side as at least one member.
  // Raising only adds forced symbols and totalize() defaults the rest to
  // the 1-side, so the uniqueness column ({m'}; {m}) that an intruder
  // needs in its "t sticks with m" variant ({t, m}; {m'}) is never formed
  // from the initial set alone — seed those variants explicitly.
  for (const auto& nf : cs.nonfaces()) {
    const Bitset inside = index_bitset(n, nf.members);
    for (std::uint32_t t = 0; t < n; ++t) {
      if (inside.test(t)) continue;
      for (std::uint32_t m : nf.members) {
        for (std::uint32_t m2 : nf.members) {
          if (m2 == m) continue;
          seeds.push_back(Dichotomy::make(n, {t, m}, {m2}));
          seeds.push_back(Dichotomy::make(n, {m2}, {t, m}));
        }
      }
    }
  }

  std::vector<Dichotomy> d;
  for (Dichotomy& s : seeds)
    if (raise_and_validate(s, cs)) d.push_back(std::move(s));
  dedupe_dichotomies(d);

  std::vector<Dichotomy> candidates = d;
  if (!d.empty()) {
    PrimeGenResult pg =
        generate_prime_dichotomies(d, opts.prime_options, stage.ctx());
    if (pg.truncated) {
      res.status = SolveOutcome::Status::kTruncated;
      res.truncation = pg.truncation;
      stage.set_truncation(pg.truncation);
      return res;
    }
    for (Dichotomy& p : pg.primes)
      if (raise_and_validate(p, cs)) candidates.push_back(std::move(p));
    dedupe_dichotomies(candidates);
  }

  // Totalize and keep only patterns that are exactly valid as columns.
  std::vector<std::uint64_t> patterns;
  for (const Dichotomy& c : candidates) {
    const std::uint64_t p = totalize(c, n);
    if (pattern_valid(p, cs)) patterns.push_back(p);
  }
  std::sort(patterns.begin(), patterns.end());
  patterns.erase(std::unique(patterns.begin(), patterns.end()),
                 patterns.end());
  res.num_candidates = patterns.size();

  // Auxiliary columns: one per (non-face constraint, outside symbol) pair,
  // meaning "this symbol is allowed to be separated from the face".
  std::vector<std::pair<std::size_t, std::uint32_t>> aux;  // (nonface, t)
  for (std::size_t i = 0; i < cs.nonfaces().size(); ++i) {
    const Bitset inside = index_bitset(n, cs.nonfaces()[i].members);
    for (std::uint32_t t = 0; t < n; ++t)
      if (!inside.test(t)) aux.emplace_back(i, t);
  }
  res.num_aux_columns = aux.size();
  metric_add(stage.ctx(), "extend.candidates", res.num_candidates);
  metric_add(stage.ctx(), "extend.aux_columns", res.num_aux_columns);

  BinateCoverProblem problem;
  problem.num_columns = patterns.size() + aux.size();
  problem.weights.assign(problem.num_columns, 0);
  for (std::size_t c = 0; c < patterns.size(); ++c) problem.weights[c] = 1;

  // Unate rows: every initial dichotomy must be covered by a column.
  for (const auto& i : initial) {
    BinateRow row{Bitset(problem.num_columns), Bitset(problem.num_columns)};
    for (std::size_t c = 0; c < patterns.size(); ++c)
      if (pattern_covers(patterns[c], i.dichotomy)) row.pos.set(c);
    problem.rows.push_back(std::move(row));
  }

  // Distance-2 rows: at least two selected columns must split the pair,
  // encoded as "for each splitting column p, some other splitting column is
  // also selected".
  for (const auto& d2 : cs.distance2s()) {
    std::vector<std::size_t> splitting;
    for (std::size_t c = 0; c < patterns.size(); ++c)
      if (pattern_bit(patterns[c], d2.a) != pattern_bit(patterns[c], d2.b))
        splitting.push_back(c);
    {
      BinateRow row{Bitset(problem.num_columns), Bitset(problem.num_columns)};
      for (std::size_t c : splitting) row.pos.set(c);
      problem.rows.push_back(std::move(row));
    }
    for (std::size_t p : splitting) {
      BinateRow row{Bitset(problem.num_columns), Bitset(problem.num_columns)};
      for (std::size_t c : splitting)
        if (c != p) row.pos.set(c);
      problem.rows.push_back(std::move(row));
    }
  }

  // Non-face rows: u_(i,t) unselected forbids every column separating t
  // from face i; at least one u_(i,t) per non-face must be unselected.
  for (std::size_t a = 0; a < aux.size(); ++a) {
    const auto& [i, t] = aux[a];
    for (std::size_t c = 0; c < patterns.size(); ++c) {
      if (!pattern_separates_from_face(patterns[c], cs.nonfaces()[i].members,
                                       t))
        continue;
      BinateRow row{Bitset(problem.num_columns), Bitset(problem.num_columns)};
      row.pos.set(patterns.size() + a);  // u
      row.neg.set(c);                    // or column unselected
      problem.rows.push_back(std::move(row));
    }
  }
  for (std::size_t i = 0; i < cs.nonfaces().size(); ++i) {
    BinateRow row{Bitset(problem.num_columns), Bitset(problem.num_columns)};
    bool any = false;
    for (std::size_t a = 0; a < aux.size(); ++a)
      if (aux[a].first == i) {
        row.neg.set(patterns.size() + a);
        any = true;
      }
    if (!any) {
      // No symbol outside the face exists: the non-face constraint is
      // unsatisfiable (nobody can intrude).
      res.status = SolveOutcome::Status::kInfeasible;
      return res;
    }
    problem.rows.push_back(std::move(row));
  }

  if (!stage.ctx().poll()) {
    res.status = SolveOutcome::Status::kTruncated;
    res.truncation = stage.ctx().reason();
    stage.set_truncation(res.truncation);
    return res;
  }
  const CoverSolution sol =
      solve_binate_cover(problem, opts.cover_options, stage.ctx());
  res.nodes_explored = sol.nodes_explored;
  stage.add_items(sol.nodes_explored);
  if (!sol.feasible) {
    // Only a completed search proves infeasibility; a truncated miss is
    // "unknown — the budget ran out first" (solve_binate_cover's honesty
    // contract, docs/API.md).
    res.status = sol.proven_infeasible() ? SolveOutcome::Status::kInfeasible
                                         : SolveOutcome::Status::kTruncated;
    res.truncation = sol.truncation;
    stage.set_truncation(res.truncation);
    return res;
  }
  assert(sol.cost >= 0);
  res.status = SolveOutcome::Status::kEncoded;
  res.minimal = sol.optimal;
  if (!sol.optimal) {
    res.truncation = sol.truncation;
    stage.set_truncation(res.truncation);
  }

  std::vector<std::uint64_t> chosen;
  for (std::size_t c : sol.columns)
    if (c < patterns.size()) chosen.push_back(patterns[c]);
  res.encoding.bits = static_cast<int>(chosen.size());
  res.encoding.codes.assign(n, 0);
  for (std::size_t j = 0; j < chosen.size(); ++j)
    for (std::uint32_t s = 0; s < n; ++s)
      if (pattern_bit(chosen[j], s))
        res.encoding.codes[s] |= std::uint64_t{1} << j;
  return res;
}

}  // namespace encodesat
