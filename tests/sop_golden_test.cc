// Pins what the cs/ps fold returns: the terms of two_cnf_to_minimal_sop in
// the order they come in, its work units, folds, term count and
// truncation reason on seeded random graphs of 1-200 vertices (on both
// sides of every word boundary) at densities 0.05-0.9, under term limits
// and work caps that stop some runs part way; and the prime
// encoding-dichotomies, in order, of the three Table 1 machines whose folds
// finish within suite_exact's budgets. The fold can be rewritten for speed
// only if every term, its position, and every charged unit and truncation
// point stay the same; this file is the check. Regenerate with
//
//   ./build/tests/encodesat_tests --gtest_also_run_disabled_tests
//       --gtest_filter='SopGolden.DISABLED_PrintCurrent'
//
// only for a deliberate change to the fold's algorithm.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/primes.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "util/rng.h"

namespace encodesat {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Hex digits of the set, highest element first (one digit per four
// elements), so a term over 200 vertices takes 50 characters.
std::string hex_of(const Bitset& b) {
  static const char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::size_t d = (b.size() + 3) / 4; d-- > 0;) {
    unsigned v = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t i = 4 * d + k;
      if (i < b.size() && b.test(i)) v |= 1u << k;
    }
    s += kDigits[v];
  }
  return s;
}

std::vector<Bitset> random_graph(std::size_t m, double p, Rng& rng) {
  std::vector<Bitset> adj(m, Bitset(m));
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j)
      if (rng.next_bool(p)) {
        adj[i].set(j);
        adj[j].set(i);
      }
  return adj;
}

std::string golden_sop_text() {
  const std::size_t sizes[] = {1,  2,  3,  4,   6,   9,   12,  17,  24,  33,
                               45, 63, 64, 65,  90,  127, 128, 129, 160, 200};
  const double densities[] = {0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9};
  // Term limits and work caps cycle independently of the densities, so
  // every (size, density) pair meets several limits across the sizes.
  const std::size_t term_limits[] = {40, 400, 3000, 30000};
  const std::uint64_t work_caps[] = {~0ull, 2'000'000, 200'000'000};
  std::string out;
  std::size_t index = 0;
  for (const std::size_t m : sizes) {
    for (const double p : densities) {
      const std::uint64_t seed = 1000 * m + index;
      const std::size_t max_terms = term_limits[index % 4];
      const std::uint64_t max_work = work_caps[(index / 4) % 3];
      Rng rng(seed);
      const std::vector<Bitset> adj = random_graph(m, p, rng);
      std::size_t edges = 0;
      for (const Bitset& row : adj) edges += row.count();

      bool truncated = false;
      Truncation reason = Truncation::kNone;
      SopFoldStats fold;
      const std::vector<Bitset> sop = two_cnf_to_minimal_sop(
          adj, max_terms, &truncated, max_work, ExecContext{}, &reason, &fold);

      char head[256];
      std::snprintf(head, sizeof head,
                    "== graph %zu m=%zu p=%.2f seed=%llu edges=%zu "
                    "max_terms=%zu max_work=%s\n",
                    index, m, p, static_cast<unsigned long long>(seed),
                    edges / 2, max_terms,
                    max_work == ~0ull ? "none"
                                      : std::to_string(max_work).c_str());
      out += head;
      out += std::string("truncation=") + truncation_name(reason) +
             " truncated=" + (truncated ? "1" : "0") +
             " work=" + std::to_string(fold.work) +
             " folds=" + std::to_string(fold.folds) +
             " num_terms=" + std::to_string(fold.num_terms) +
             " returned=" + std::to_string(sop.size()) + "\n";
      for (const Bitset& t : sop) out += hex_of(t) + "\n";
      ++index;
    }
  }

  // Table 1 machines, built as bench_table1 builds them; their primes come
  // from the valid maximally raised set, as in exact_encode.
  for (const char* name : {"cse", "dk512", "master"}) {
    const Fsm fsm = make_mcnc_like(benchmark_spec(name));
    ConstraintGenOptions gopts;
    gopts.max_dominance = static_cast<int>(fsm.num_states()) * 2;
    gopts.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
    const ConstraintSet cs = generate_mixed_constraints(fsm, gopts);
    const FeasibilityResult feas = check_feasible(cs, ExecContext{});
    PrimeGenOptions popts;
    popts.max_terms = 50000;
    const PrimeGenResult pg = generate_prime_dichotomies(feas.raised, popts);
    out += std::string("== machine ") + name +
           " raised=" + std::to_string(feas.raised.size()) +
           " truncation=" + truncation_name(pg.truncation) +
           " work=" + std::to_string(pg.fold.work) +
           " folds=" + std::to_string(pg.fold.folds) +
           " num_terms=" + std::to_string(pg.num_terms) +
           " primes=" + std::to_string(pg.primes.size()) + "\n";
    for (const Dichotomy& p : pg.primes)
      out += hex_of(p.left) + " " + hex_of(p.right) + "\n";
  }
  return out;
}

TEST(SopGolden, FoldsMatchGoldenFile) {
  const std::string golden =
      read_file(std::string(ENCODESAT_TESTS_DATA_DIR) + "/sop_v1.golden");
  EXPECT_EQ(golden_sop_text(), golden);
}

// Not a check: prints the current rendering for regeneration.
TEST(SopGolden, DISABLED_PrintCurrent) {
  std::printf("%s", golden_sop_text().c_str());
}

}  // namespace
}  // namespace encodesat
