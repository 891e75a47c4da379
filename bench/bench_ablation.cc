// Ablation studies for the design choices DESIGN.md calls out:
//   A. Raising: generating primes from the maximally raised valid
//      dichotomies versus from the merely-valid initial set (the paper's
//      efficiency claim in Section 6: raising avoids generating primes
//      that are later deleted).
//   B. Prime generation: the cs/ps 2-CNF algorithm versus Tracey-style
//      iterated consensus (the pre-paper approach of [25], which "could
//      not complete on any of the examples").
//   C. Covering column reduction: coverage-dominance preprocessing versus
//      raw prime columns.
#include <cstdio>

#include "baseline/consensus_primes.h"
#include "core/encoder.h"
#include "core/generate.h"
#include "core/output_rules.h"
#include "core/primes.h"
#include "covering/unate.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "util/timer.h"

using namespace encodesat;

namespace {

std::vector<Dichotomy> valid_initial(const ConstraintSet& cs) {
  std::vector<Dichotomy> out;
  for (const auto& i : generate_initial_dichotomies(cs))
    if (dichotomy_valid(i.dichotomy, cs)) out.push_back(i.dichotomy);
  dedupe_dichotomies(out);
  return out;
}

std::vector<Dichotomy> raised_set(const ConstraintSet& cs) {
  std::vector<Dichotomy> out;
  for (const auto& i : generate_initial_dichotomies(cs)) {
    Dichotomy r = i.dichotomy;
    if (raise_and_validate(r, cs)) out.push_back(std::move(r));
  }
  dedupe_dichotomies(out);
  return out;
}

std::size_t count_valid(std::vector<Dichotomy> primes,
                        const ConstraintSet& cs) {
  remove_invalid_dichotomies(primes, cs);
  return primes.size();
}

void ablation_raising() {
  std::printf("=== Ablation A: raising before prime generation ===\n");
  std::printf("%-9s %10s %10s %12s %12s\n", "Name", "raw prims",
              "raw valid", "raised prims", "raised valid");
  for (const char* name : {"bbsse", "cse", "dk512", "master", "keyb"}) {
    const Fsm fsm = make_mcnc_like(benchmark_spec(name));
    const ConstraintSet cs = generate_mixed_constraints(fsm);
    PrimeGenOptions opts;
    opts.max_terms = 50000;

    const auto raw = generate_prime_dichotomies(valid_initial(cs), opts);
    const auto raised = generate_prime_dichotomies(raised_set(cs), opts);
    if (raw.truncated || raised.truncated) {
      std::printf("%-9s %10s %10s %12s %12s\n", name, "*", "*", "*", "*");
      continue;
    }
    std::printf("%-9s %10zu %10zu %12zu %12zu\n", name, raw.primes.size(),
                count_valid(raw.primes, cs), raised.primes.size(),
                count_valid(raised.primes, cs));
  }
  std::printf("(raising shrinks the candidate space up front instead of "
              "generating primes that are deleted later)\n\n");
}

void ablation_consensus() {
  std::printf("=== Ablation B: cs/ps vs iterated consensus ===\n");
  std::printf("%-9s %8s %10s %12s %12s %14s\n", "Name", "#dichs",
              "cs/ps (s)", "consensus(s)", "primes", "merge tries");
  for (const char* name : {"dk512", "master", "cse", "keyb"}) {
    const Fsm fsm = make_mcnc_like(benchmark_spec(name));
    const ConstraintSet cs = generate_mixed_constraints(fsm);
    const auto d = raised_set(cs);

    Timer t;
    const auto fast = generate_prime_dichotomies(d);
    const double fast_time = t.elapsed_seconds();

    ConsensusPrimesOptions copts;
    copts.max_dichotomies = 60000;
    t.reset();
    const auto slow = consensus_prime_dichotomies(d, copts);
    const double slow_time = t.elapsed_seconds();

    if (fast.truncated || slow.truncated) {
      std::printf("%-9s %8zu %10.2f %12s %12s %14zu  (consensus blew up)\n",
                  name, d.size(), fast_time,
                  slow.truncated ? "*" : "-", "*", slow.merge_attempts);
      continue;
    }
    std::printf("%-9s %8zu %10.2f %12.2f %12zu %14zu\n", name, d.size(),
                fast_time, slow_time, fast.primes.size(),
                slow.merge_attempts);
  }
  std::printf("(the paper: the previous prime-generation approach [25] "
              "could not complete on any Table 1 example)\n\n");
}

void ablation_column_reduction() {
  std::printf("=== Ablation C: covering column reduction ===\n");
  std::printf("%-9s %8s %9s %9s | %10s\n", "Name", "#rows", "raw cols",
              "red cols", "B&B nodes");
  for (const char* name : {"dk512", "master", "cse"}) {
    const Fsm fsm = make_mcnc_like(benchmark_spec(name));
    const ConstraintSet cs = generate_mixed_constraints(fsm);
    const auto init = generate_initial_dichotomies(cs);
    const auto d = raised_set(cs);
    const auto pg = generate_prime_dichotomies(d);
    if (pg.truncated) continue;

    UnateCoverProblem prob;
    prob.num_columns = pg.primes.size();
    for (const auto& i : init) {
      Bitset row(prob.num_columns);
      for (std::size_t c = 0; c < pg.primes.size(); ++c)
        if (pg.primes[c].covers(i.dichotomy)) row.set(c);
      prob.rows.push_back(std::move(row));
    }
    UnateCoverOptions fast_opts;
    fast_opts.max_nodes = 100000;
    Timer t;
    const auto sol = solve_unate_cover(prob, fast_opts);
    const double secs = t.elapsed_seconds();
    std::printf("%-9s %8zu %9zu %9zu | %10llu (%0.2fs, cost %d%s)\n", name,
                prob.rows.size(), prob.num_columns,
                sol.columns_after_reduction,
                static_cast<unsigned long long>(sol.nodes_explored), secs,
                sol.cost, sol.optimal ? "" : ", budget hit");
  }
  std::printf("(the root reduction removes coverage-dominated primes before "
              "branch and bound; the surviving cyclic core is where the "
              "NP-hard part lives — budgets keep it honest)\n\n");
}

}  // namespace

int main() {
  ablation_raising();
  ablation_consensus();
  ablation_column_reduction();
  return 0;
}
