// Covering engine benchmark, on two sets of cases.
//
// Binate: the rebuilt branch-and-bound engine (src/covering/binate.cc —
// root reductions, component decomposition, arena-backed explicit-stack
// search) against a verbatim copy of the pre-rebuild recursive engine, on
// the same instances.
//
// Unate: the unate tables of cse, dk512 and master, built as
// tests/cover_golden_test.cc builds them (the exact encoder's cover table)
// and solved under suite_exact's 20,000-node budget. Every table is built
// before the first timed solve, so each solve starts from the same heap.
// The bench exits 1 unless every solve returns a cover whose weights sum
// to its cost and repeats the first solve's search exactly.
//
//   bench_covering [--reps N] [--quick] [--out FILE] [--check-reduction X]
//
// Per case the JSON records the fastest of N solves plus deterministic
// counters. Binate cases: `nodes` / `seed_nodes` (search nodes for the new
// and the seed engine — the headline reduction the rebuild buys),
// `components`, `propagations` and `cost`. Unate cases: `nodes`,
// `components`, `cost` and the search arenas' `arena_allocs`,
// `arena_reuses` and `peak_arena_bytes`. All counters are pure functions
// of the instance, so compare_bench.py guards them exactly; wall-time
// regressions against bench/BENCH_covering.json fail the
// covering_bench_check ctest. --check-reduction X exits nonzero unless
// some binate case shows at least an X-fold node reduction over the seed
// engine.
//
// Schema: encodesat-bench-covering-v1 (compare_bench.py-compatible).
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/binate_table.h"
#include "core/constraints.h"
#include "core/encoder.h"
#include "core/output_rules.h"
#include "covering/binate.h"
#include "covering/unate.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace encodesat;

namespace seedengine {

// The pre-rebuild recursive engine, kept verbatim (minus the result-shape
// plumbing) as the node-count baseline. Do not modernise it: its job is to
// measure what the rebuild changed.
int column_weight(const BinateCoverProblem& p, std::size_t c) {
  return p.weights.empty() ? 1 : p.weights[c];
}

struct Search {
  const BinateCoverProblem& p;
  std::uint64_t max_nodes;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  int best_cost = std::numeric_limits<int>::max();
  bool found = false;
  std::vector<std::size_t> best_columns;

  Search(const BinateCoverProblem& problem, std::uint64_t budget)
      : p(problem), max_nodes(budget) {}

  bool row_satisfied(const BinateRow& r, const Bitset& assigned,
                     const Bitset& value) const {
    Bitset t = r.pos;
    t &= assigned;
    t &= value;
    if (t.any()) return true;
    Bitset f = r.neg;
    f &= assigned;
    f.subtract(value);
    return f.any();
  }

  int lower_bound(const Bitset& assigned, const Bitset& value) const {
    Bitset used(p.num_columns);
    int bound = 0;
    for (const BinateRow& r : p.rows) {
      if (row_satisfied(r, assigned, value)) continue;
      Bitset free_neg = r.neg;
      free_neg.subtract(assigned);
      if (free_neg.any()) continue;
      Bitset free_pos = r.pos;
      free_pos.subtract(assigned);
      if (free_pos.empty() || free_pos.intersects(used)) continue;
      used |= free_pos;
      int cheapest = std::numeric_limits<int>::max();
      free_pos.for_each([&](std::size_t c) {
        cheapest = std::min(cheapest, column_weight(p, c));
      });
      bound += cheapest;
    }
    return bound;
  }

  void solve(Bitset assigned, Bitset value, int cost) {
    if (budget_exhausted) return;
    if (++nodes > max_nodes) {
      budget_exhausted = true;
      return;
    }
    if (cost >= best_cost) return;

    bool changed = true;
    while (changed) {
      changed = false;
      for (const BinateRow& r : p.rows) {
        if (row_satisfied(r, assigned, value)) continue;
        Bitset free_pos = r.pos;
        free_pos.subtract(assigned);
        Bitset free_neg = r.neg;
        free_neg.subtract(assigned);
        const std::size_t nfree = free_pos.count() + free_neg.count();
        if (nfree == 0) return;
        if (nfree == 1) {
          if (free_pos.any()) {
            const std::size_t c = free_pos.first();
            assigned.set(c);
            value.set(c);
            cost += column_weight(p, c);
            if (cost >= best_cost) return;
          } else {
            assigned.set(free_neg.first());
          }
          changed = true;
        }
      }
    }

    const BinateRow* pivot = nullptr;
    std::size_t pivot_free = std::numeric_limits<std::size_t>::max();
    for (const BinateRow& r : p.rows) {
      if (row_satisfied(r, assigned, value)) continue;
      Bitset free_pos = r.pos;
      free_pos.subtract(assigned);
      Bitset free_neg = r.neg;
      free_neg.subtract(assigned);
      const std::size_t nfree = free_pos.count() + free_neg.count();
      if (nfree < pivot_free) {
        pivot_free = nfree;
        pivot = &r;
      }
    }
    if (pivot == nullptr) {
      found = true;
      best_cost = cost;
      best_columns.clear();
      Bitset sel = value;
      sel &= assigned;
      sel.for_each([&](std::size_t c) { best_columns.push_back(c); });
      return;
    }

    if (cost + lower_bound(assigned, value) >= best_cost) return;

    Bitset free_neg = pivot->neg;
    free_neg.subtract(assigned);
    std::size_t var;
    if (free_neg.any())
      var = free_neg.first();
    else {
      Bitset free_pos = pivot->pos;
      free_pos.subtract(assigned);
      assert(free_pos.any());
      var = free_pos.first();
    }

    {
      Bitset a = assigned, v = value;
      a.set(var);
      v.reset(var);
      solve(std::move(a), std::move(v), cost);
    }
    {
      Bitset a = assigned, v = value;
      a.set(var);
      v.set(var);
      solve(std::move(a), std::move(v), cost + column_weight(p, var));
    }
  }
};

}  // namespace seedengine

namespace {

struct CaseResult {
  std::string name;
  bool unate = false;  // a unate table: no seed engine, arena counters
  double wall_seconds = 0;
  CoverSolution sol;  // the last solve's answer and counters
  std::uint64_t seed_nodes = 0;
  double seed_wall = 0;  // printed, not guarded (it is the old engine)
};

// The full 2^n - 2-column binate table of a plain n-symbol universe: all
// uniqueness dichotomies, seven-way symmetric cuts, no unit rows — the
// shape both engines must actually search.
BinateCoverProblem plain_table(int n) {
  ConstraintSet cs;
  for (int i = 0; i < n; ++i) cs.symbols().intern("s" + std::to_string(i));
  return build_binate_table(cs).problem;
}

// The paper's Figure 1 table (EXPERIMENTS.md): the root reductions alone
// solve it, so `nodes` measures the before/after of the reduction pass.
BinateCoverProblem figure1_table() {
  const ConstraintSet cs = parse_constraints(R"(
    face a b
    dominance b c
    disjunctive b a c
  )");
  return build_binate_table(cs).problem;
}

// Random weighted binate instance: pure-positive cover rows over `cols`
// columns plus implication pairs (select a => select b) that give the
// table its binate character. Deterministic via the fixed seed.
BinateCoverProblem random_binate(std::uint64_t seed, std::size_t cols,
                                 std::size_t cover_rows,
                                 std::size_t implications) {
  Rng rng(seed);
  BinateCoverProblem p;
  p.num_columns = cols;
  for (std::size_t c = 0; c < cols; ++c)
    p.weights.push_back(1 + static_cast<int>(rng.next_below(4)));
  for (std::size_t r = 0; r < cover_rows; ++r) {
    const std::size_t width = 3 + rng.next_below(3);
    std::vector<std::size_t> pos;
    for (std::size_t k = 0; k < width; ++k) {
      const std::size_t c = rng.next_below(cols);
      if (std::find(pos.begin(), pos.end(), c) == pos.end()) pos.push_back(c);
    }
    p.add_row(pos, {});
  }
  for (std::size_t i = 0; i < implications; ++i) {
    const std::size_t a = rng.next_below(cols);
    const std::size_t b = rng.next_below(cols);
    if (a != b) p.add_row({b}, {a});  // a selected => b selected
  }
  return p;
}

// Several independent random blocks glued into one problem: exercises the
// component decomposition (the seed engine sees one monolithic search).
BinateCoverProblem block_diagonal(std::uint64_t seed, int blocks,
                                  std::size_t block_cols) {
  Rng rng(seed);
  BinateCoverProblem p;
  p.num_columns = static_cast<std::size_t>(blocks) * block_cols;
  for (std::size_t c = 0; c < p.num_columns; ++c)
    p.weights.push_back(1 + static_cast<int>(rng.next_below(3)));
  for (int b = 0; b < blocks; ++b) {
    const std::size_t base = static_cast<std::size_t>(b) * block_cols;
    const std::size_t nrows = block_cols + block_cols / 2;
    for (std::size_t r = 0; r < nrows; ++r) {
      const std::size_t width = 2 + rng.next_below(3);
      std::vector<std::size_t> pos;
      for (std::size_t k = 0; k < width; ++k) {
        const std::size_t c = base + rng.next_below(block_cols);
        if (std::find(pos.begin(), pos.end(), c) == pos.end())
          pos.push_back(c);
      }
      p.add_row(pos, {});
    }
    for (std::size_t i = 0; i < block_cols / 3; ++i) {
      const std::size_t a = base + rng.next_below(block_cols);
      const std::size_t b2 = base + rng.next_below(block_cols);
      if (a != b2) p.add_row({b2}, {a});
    }
  }
  return p;
}

// The unate table of a Table 1 machine, built as the exact encoder builds
// it: rows are the initial dichotomies, columns the valid re-raised primes
// plus the valid maximally raised set, deduplicated.
UnateCoverProblem machine_table(const char* name) {
  const Fsm fsm = make_mcnc_like(benchmark_spec(name));
  ConstraintGenOptions gopts;
  gopts.max_dominance = static_cast<int>(fsm.num_states()) * 2;
  gopts.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
  const ConstraintSet cs = generate_mixed_constraints(fsm, gopts);
  const FeasibilityResult feas = check_feasible(cs, ExecContext{});
  PrimeGenOptions popts;
  popts.max_terms = 50000;
  PrimeGenResult pg = generate_prime_dichotomies(feas.raised, popts);
  std::vector<Dichotomy> candidates;
  for (Dichotomy& d : pg.primes)
    if (raise_and_validate(d, cs)) candidates.push_back(std::move(d));
  for (const Dichotomy& d : feas.raised) candidates.push_back(d);
  dedupe_dichotomies(candidates);
  UnateCoverProblem p;
  p.num_columns = candidates.size();
  for (const InitialDichotomy& init : feas.initial) {
    Bitset row(p.num_columns);
    for (std::size_t c = 0; c < candidates.size(); ++c)
      if (candidates[c].covers(init.dichotomy)) row.set(c);
    p.rows.push_back(std::move(row));
  }
  return p;
}

CaseResult run_case(const std::string& name, const BinateCoverProblem& p,
                    int reps) {
  CaseResult out;
  out.name = name;
  out.wall_seconds = 1e30;
  BinateCoverOptions opts;  // default per-component node budget
  for (int r = 0; r < reps; ++r) {
    Timer t;
    out.sol = solve_binate_cover(p, opts);
    out.wall_seconds = std::min(out.wall_seconds, t.elapsed_seconds());
  }
  const int cost = out.sol.feasible ? out.sol.cost : -1;
  out.seed_wall = 1e30;
  for (int r = 0; r < reps; ++r) {
    seedengine::Search seed(p, BinateCoverOptions{}.max_nodes);
    Timer t;
    seed.solve(Bitset(p.num_columns), Bitset(p.num_columns), 0);
    const double secs = t.elapsed_seconds();
    if (secs < out.seed_wall) out.seed_wall = secs;
    out.seed_nodes = seed.nodes;
    // Both engines are exact: the minimum cost must agree.
    if (seed.found && out.sol.truncation == Truncation::kNone && cost >= 0 &&
        seed.best_cost != cost) {
      std::fprintf(stderr, "FATAL %s: cost mismatch new=%d seed=%d\n",
                   name.c_str(), cost, seed.best_cost);
      std::exit(1);
    }
  }
  return out;
}

// What is wrong with `sol` as a cover of `p`, or nullptr: its columns must
// cover every row, and their weights must sum to its cost.
const char* cover_fault(const UnateCoverProblem& p, const CoverSolution& sol) {
  if (!sol.feasible) return "no cover";
  int cost = 0;
  for (const std::size_t c : sol.columns) {
    if (c >= p.num_columns) return "a column out of range";
    cost += p.weights.empty() ? 1 : p.weights[c];
  }
  if (cost != sol.cost) return "column weights do not sum to the cost";
  for (const Bitset& row : p.rows)
    if (std::none_of(sol.columns.begin(), sol.columns.end(),
                     [&](std::size_t c) { return row.test(c); }))
      return "a row is left uncovered";
  return nullptr;
}

bool same_search(const CoverSolution& a, const CoverSolution& b) {
  return a.nodes_explored == b.nodes_explored && a.cost == b.cost &&
         a.columns == b.columns && a.arena_allocs == b.arena_allocs &&
         a.arena_reuses == b.arena_reuses &&
         a.peak_arena_bytes == b.peak_arena_bytes;
}

// Solves under suite_exact's cover budget (Table 1's quick budget). Exits 1
// unless every rep returns a cover of `p` (cover_fault) that repeats the
// first rep's nodes, cost, columns and arena counters.
CaseResult run_unate_case(const std::string& name, const UnateCoverProblem& p,
                          int reps) {
  CaseResult out;
  out.name = name;
  out.unate = true;
  out.wall_seconds = 1e30;
  UnateCoverOptions opts;
  opts.max_nodes = 20000;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    CoverSolution sol = solve_unate_cover(p, opts);
    out.wall_seconds = std::min(out.wall_seconds, t.elapsed_seconds());
    const char* fault = cover_fault(p, sol);
    if (!fault && r > 0 && !same_search(sol, out.sol))
      fault = "the search differs from the first rep's";
    if (fault) {
      std::fprintf(stderr, "FATAL %s: rep %d: %s\n", name.c_str(), r + 1,
                   fault);
      std::exit(1);
    }
    if (r == 0) out.sol = std::move(sol);
  }
  return out;
}

std::string counters_json(const CaseResult& c) {
  const CoverSolution& s = c.sol;
  char buf[256];
  if (c.unate)
    std::snprintf(buf, sizeof buf,
                  "\"nodes\": %llu, \"components\": %zu, \"cost\": %d, "
                  "\"arena_allocs\": %llu, \"arena_reuses\": %llu, "
                  "\"peak_arena_bytes\": %zu",
                  static_cast<unsigned long long>(s.nodes_explored),
                  s.components, s.cost,
                  static_cast<unsigned long long>(s.arena_allocs),
                  static_cast<unsigned long long>(s.arena_reuses),
                  s.peak_arena_bytes);
  else
    std::snprintf(buf, sizeof buf,
                  "\"nodes\": %llu, \"seed_nodes\": %llu, "
                  "\"components\": %zu, \"propagations\": %llu, "
                  "\"cost\": %d",
                  static_cast<unsigned long long>(s.nodes_explored),
                  static_cast<unsigned long long>(c.seed_nodes), s.components,
                  static_cast<unsigned long long>(s.propagations),
                  s.feasible ? s.cost : -1);
  return buf;
}

void write_json(std::FILE* f, const std::vector<CaseResult>& cases) {
  std::fprintf(f, "{\n  \"schema\": \"encodesat-bench-covering-v1\",\n");
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                 "\"truncated\": %s, \"counters\": {%s}}%s\n",
                 c.name.c_str(), c.wall_seconds,
                 c.sol.truncation != Truncation::kNone ? "true" : "false",
                 counters_json(c).c_str(), i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  const char* out_path = nullptr;
  double check_reduction = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--quick"))
      reps = 1;
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else if (!std::strcmp(argv[i], "--check-reduction") && i + 1 < argc)
      check_reduction = std::atof(argv[++i]);
    else {
      std::fprintf(
          stderr,
          "usage: %s [--reps N] [--quick] [--out FILE] "
          "[--check-reduction X]\n",
          argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  // Every unate table is built before the first timed solve.
  std::vector<std::pair<std::string, UnateCoverProblem>> unate_tables;
  for (const char* name : {"cse", "dk512", "master"})
    unate_tables.emplace_back(std::string("unate_") + name,
                              machine_table(name));

  std::vector<CaseResult> cases;
  cases.push_back(run_case("figure1", figure1_table(), reps));
  cases.push_back(run_case("table_n6", plain_table(6), reps));
  cases.push_back(
      run_case("random_c60r70", random_binate(41, 60, 70, 20), reps));
  cases.push_back(
      run_case("blocks_4x16", block_diagonal(97, 4, 16), reps));
  for (const auto& [name, p] : unate_tables)
    cases.push_back(run_unate_case(name, p, reps));

  std::printf("%-16s %10s %12s %12s %6s %6s %10s\n", "case", "wall_s",
              "nodes", "seed_nodes", "ratio", "comps", "seed_wall");
  double best_ratio = 0;
  for (const CaseResult& c : cases) {
    const std::uint64_t nodes = c.sol.nodes_explored;
    if (c.unate) {
      std::printf("%-16s %10.6f %12llu %12s %6s %6zu %10s\n", c.name.c_str(),
                  c.wall_seconds, static_cast<unsigned long long>(nodes), "-",
                  "-", c.sol.components, "-");
      continue;
    }
    const double ratio = static_cast<double>(c.seed_nodes) /
                         static_cast<double>(nodes ? nodes : 1);
    best_ratio = std::max(best_ratio, ratio);
    std::printf("%-16s %10.6f %12llu %12llu %5.1fx %6zu %10.6f\n",
                c.name.c_str(), c.wall_seconds,
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(c.seed_nodes), ratio,
                c.sol.components, c.seed_wall);
  }
  std::fprintf(stderr, "best node reduction: %.1fx over the seed engine\n",
               best_ratio);

  if (out_path) {
    std::FILE* f = std::fopen(out_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    write_json(f, cases);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path);
  }
  if (check_reduction > 0 && best_ratio < check_reduction) {
    std::fprintf(stderr,
                 "FAIL: best node reduction %.2fx below the %.1fx floor\n",
                 best_ratio, check_reduction);
    return 1;
  }
  return 0;
}
