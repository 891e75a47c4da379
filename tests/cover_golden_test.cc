// Pins what both covering engines return: every field of the CoverSolution
// (answer, search counters, arena traffic and truncation) on seeded random
// unate and binate tables of one to six components, under unit and random
// weights and several node budgets; and the unate covers of five Table 1
// machines, built as the exact encoder builds them and solved under
// suite_exact's 20,000-node budget. Every run is solved at one and at four
// threads, which must agree, and recorded once. The engines' shared steps
// (column dominance, the component split, the fan-out and merge, and the
// search core) can be rewritten only if every line here stays the same.
// Regenerate with
//
//   ./build/tests/encodesat_tests --gtest_also_run_disabled_tests
//       --gtest_filter='CoverGolden.DISABLED_PrintCurrent'
//
// only for a deliberate change to what an engine returns. A build that
// defines ENCODESAT_COVER_GOLDEN_TABLES_ONLY checks the random tables alone
// (the machines need the FSM front end and the exact flow).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "covering/binate.h"
#include "covering/unate.h"
#include "util/rng.h"

#ifndef ENCODESAT_COVER_GOLDEN_TABLES_ONLY
#include "core/encoder.h"
#include "core/output_rules.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#endif

namespace encodesat {
namespace {

constexpr char kMachinesHeader[] = "== machine ";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string render(const CoverSolution& s) {
  std::string cols;
  for (const std::size_t c : s.columns)
    cols += (cols.empty() ? "" : ",") + std::to_string(c);
  char line[512];
  std::snprintf(
      line, sizeof line,
      "feasible=%d optimal=%d cost=%d nodes=%llu components=%zu "
      "after_reduction=%zu propagations=%llu prune_hits=%llu "
      "arena_allocs=%llu arena_reuses=%llu peak_arena_bytes=%zu "
      "truncated=%d truncation=%s columns=",
      s.feasible ? 1 : 0, s.optimal ? 1 : 0, s.cost,
      static_cast<unsigned long long>(s.nodes_explored), s.components,
      s.columns_after_reduction,
      static_cast<unsigned long long>(s.propagations),
      static_cast<unsigned long long>(s.prune_hits),
      static_cast<unsigned long long>(s.arena_allocs),
      static_cast<unsigned long long>(s.arena_reuses), s.peak_arena_bytes,
      s.truncation != Truncation::kNone ? 1 : 0,
      truncation_name(s.truncation));
  return line + cols + "\n";
}

// Solves at one and at four threads; the two renderings must be equal.
template <class Problem, class Options, class Solve>
std::string solve_both(const std::string& head, const Problem& p,
                       const Options& options, Solve solve) {
  ExecContext four;
  four.num_threads = 4;
  const std::string one_thread = render(solve(p, options, ExecContext{}));
  EXPECT_EQ(one_thread, render(solve(p, options, four))) << head;
  return head + one_thread;
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i-- > 1;)
    std::swap(v[i], v[rng.next_below(i + 1)]);
}

// Splits `num_columns` columns among `k` components in a seeded order
// (each component gets at least one), so a component's columns interleave
// with the others'.
std::vector<std::vector<std::size_t>> deal_columns(std::size_t num_columns,
                                                   std::size_t k, Rng& rng) {
  std::vector<std::size_t> owner(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c)
    owner[c] = c < k ? c : rng.next_below(k);
  shuffle(owner, rng);
  std::vector<std::vector<std::size_t>> parts(k);
  for (std::size_t c = 0; c < num_columns; ++c) parts[owner[c]].push_back(c);
  return parts;
}

std::vector<int> random_weights(std::size_t n, bool weighted, Rng& rng) {
  std::vector<int> w;
  if (weighted)
    for (std::size_t c = 0; c < n; ++c)
      w.push_back(1 + static_cast<int>(rng.next_below(5)));
  return w;
}

std::string nodes_name(std::uint64_t max_nodes, std::uint64_t by_default) {
  return max_nodes == by_default ? "default" : std::to_string(max_nodes);
}

// Unate: each component's rows draw from its own columns, and the rows of
// all components come in a seeded order. About one column in eight copies
// another column of its component, so column dominance meets exact ties.
std::string golden_unate_text() {
  const std::uint64_t budgets[] = {0, 1, 30, UnateCoverOptions{}.max_nodes};
  std::string out;
  for (std::size_t index = 0; index < 96; ++index) {
    Rng rng(0xc0e4 + 7919 * index);
    const std::size_t k = 1 + index % 6;
    const bool weighted = (index / 6) % 2 == 1;
    UnateCoverOptions options;
    options.max_nodes = budgets[(index / 12) % 4];
    const std::size_t n = k + rng.next_below(8 * k + 32);
    UnateCoverProblem p;
    p.num_columns = n;
    p.weights = random_weights(n, weighted, rng);
    for (const auto& part : deal_columns(n, k, rng)) {
      const std::size_t rows = 1 + rng.next_below(2 * part.size() + 4);
      const double density = 0.15 + 0.35 * rng.next_double();
      std::vector<Bitset> member(part.size(), Bitset(rows));
      for (std::size_t i = 0; i < part.size(); ++i) {
        if (i > 0 && rng.next_bool(0.125)) {
          member[i] = member[rng.next_below(i)];
          continue;
        }
        for (std::size_t r = 0; r < rows; ++r)
          if (rng.next_bool(density)) member[i].set(r);
      }
      for (std::size_t r = 0; r < rows; ++r) {
        Bitset row(n);
        for (std::size_t i = 0; i < part.size(); ++i)
          if (member[i].test(r)) row.set(part[i]);
        if (row.empty()) row.set(part[rng.next_below(part.size())]);
        p.rows.push_back(std::move(row));
      }
    }
    shuffle(p.rows, rng);
    char head[160];
    std::snprintf(
        head, sizeof head,
        "== unate %zu k=%zu columns=%zu rows=%zu weights=%s max_nodes=%s\n",
        index, k, n, p.rows.size(), weighted ? "random" : "unit",
        nodes_name(options.max_nodes, UnateCoverOptions{}.max_nodes).c_str());
    out += solve_both(head, p, options, solve_unate_cover);
  }

  // A table with no rows, and one with an empty row.
  UnateCoverProblem none;
  none.num_columns = 4;
  out += solve_both("== unate no-rows columns=4\n", none, UnateCoverOptions{},
                    solve_unate_cover);
  UnateCoverProblem empty_row = none;
  empty_row.rows.assign(2, Bitset(4));
  empty_row.rows[0].set(1);
  out += solve_both("== unate empty-row columns=4 rows=2\n", empty_row,
                    UnateCoverOptions{}, solve_unate_cover);
  return out;
}

// Binate: random clauses within each component, in a seeded order. Every
// fourth table adds a component of the four clauses over two more columns,
// which no root step settles and the search proves unsatisfiable; every
// fourth (offset by two) pins one column both ways, which the root
// reduction proves infeasible.
std::string golden_binate_text() {
  const std::uint64_t budgets[] = {1, 20, BinateCoverOptions{}.max_nodes};
  std::string out;
  for (std::size_t index = 0; index < 96; ++index) {
    Rng rng(0xb1a7e + 104729 * index);
    const bool search_unsat = index % 4 == 1;
    const bool root_unsat = index % 4 == 3;
    const std::size_t k = 1 + index % 6;
    const bool weighted = (index / 6) % 2 == 1;
    BinateCoverOptions options;
    options.max_nodes = budgets[(index / 12) % 3];
    const std::size_t n = 4 * k + rng.next_below(6 * k + 6);
    BinateCoverProblem p;
    p.num_columns = search_unsat ? n + 2 : n;
    p.weights = random_weights(p.num_columns, weighted, rng);
    for (const auto& part : deal_columns(n, k, rng)) {
      // Clauses of two to four literals drawn with repetition, three in
      // four of them positive.
      const std::size_t rows = 1 + rng.next_below(2 * part.size() + 2);
      for (std::size_t r = 0; r < rows; ++r) {
        std::vector<std::size_t> pos, neg;
        const std::size_t width = 2 + rng.next_below(3);
        for (std::size_t l = 0; l < width; ++l) {
          const std::size_t c = part[rng.next_below(part.size())];
          (rng.next_bool(0.75) ? pos : neg).push_back(c);
        }
        p.add_row(pos, neg);
      }
    }
    if (search_unsat) {
      p.add_row({n, n + 1}, {});
      p.add_row({n + 1}, {n});
      p.add_row({n}, {n + 1});
      p.add_row({}, {n, n + 1});
    }
    if (root_unsat) {
      const std::size_t c = rng.next_below(n);
      p.add_row({c}, {});
      p.add_row({}, {c});
    }
    shuffle(p.rows, rng);
    char head[200];
    std::snprintf(
        head, sizeof head,
        "== binate %zu k=%zu columns=%zu rows=%zu weights=%s max_nodes=%s%s\n",
        index, k, p.num_columns, p.rows.size(), weighted ? "random" : "unit",
        nodes_name(options.max_nodes, BinateCoverOptions{}.max_nodes).c_str(),
        search_unsat ? " search-unsat" : root_unsat ? " root-unsat" : "");
    out += solve_both(head, p, options, solve_binate_cover);
  }
  return out;
}

std::string golden_tables_text() {
  return golden_unate_text() + golden_binate_text();
}

// The whole golden file: the tables, then the machines from
// kMachinesHeader on.
std::string golden_file() {
  return read_file(std::string(ENCODESAT_TESTS_DATA_DIR) + "/cover_v1.golden");
}

TEST(CoverGolden, TablesMatchGoldenFile) {
  const std::string golden = golden_file();
  EXPECT_EQ(golden_tables_text(), golden.substr(0, golden.find(kMachinesHeader)));
}

#ifndef ENCODESAT_COVER_GOLDEN_TABLES_ONLY
// The unate tables of five Table 1 machines, built as exact_encode builds
// them: rows are the initial dichotomies, columns the valid re-raised
// primes plus the valid maximally raised set, deduplicated. The primes of
// cse, dk512 and master finish within suite_exact's budgets; those of
// bbsse and kirkman only under kPrimeMaxWork (suite_exact's 1e10 work
// budget stops them), and their covers are the largest here.
std::string golden_machines_text() {
  std::string out;
  for (const char* name : {"cse", "dk512", "master", "bbsse", "kirkman"}) {
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
    UnateCoverOptions options;
    options.max_nodes = 20000;
    out += solve_both(std::string(kMachinesHeader) + name + " primes_truncated=" +
                          (pg.truncated ? "1" : "0") +
                          " columns=" + std::to_string(p.num_columns) +
                          " rows=" + std::to_string(p.rows.size()) + "\n",
                      p, options, solve_unate_cover);
  }
  return out;
}

TEST(CoverGolden, MachinesMatchGoldenFile) {
  const std::string golden = golden_file();
  const std::size_t at = golden.find(kMachinesHeader);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(golden_machines_text(), golden.substr(at));
}

// Not a check: prints the current rendering for regeneration.
TEST(CoverGolden, DISABLED_PrintCurrent) {
  std::printf("%s%s", golden_tables_text().c_str(),
              golden_machines_text().c_str());
}
#endif

}  // namespace
}  // namespace encodesat
