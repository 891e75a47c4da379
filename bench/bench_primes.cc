// Benchmark regression harness for the cs/ps SOP fold (Fig. 2) — the
// measured bottleneck of the exact pipeline (Table 1's planet/vmecont blow
// up here). Emits a stable JSON schema so compare_bench.py (and the CMake
// `bench_check` target) can fail the build on wall-time regressions against
// the committed BENCH_primes.json baseline.
//
//   bench_primes [--reps N] [--out FILE] [--quick]
//
// Schema (encodesat-bench-primes-v2): one record per case with the minimum
// wall time over N repetitions plus the deterministic fold metrics (work
// units, peak arena bytes, term count) that must not drift silently. v2
// adds a per-case "counters" object (arena allocs/reuses, and the solve
// cache's hits/misses) so compare_bench.py can flag *work* regressions —
// e.g. the free list no longer being hit — independent of wall-clock
// noise.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cache/canonical.h"
#include "cache/solve_cache.h"
#include "core/encoder.h"
#include "core/primes.h"
#include "core/solver.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace encodesat;

namespace {

struct CaseResult {
  std::string name;
  double wall_seconds = 0;
  std::uint64_t work_units = 0;
  std::size_t peak_arena_bytes = 0;
  std::size_t num_terms = 0;
  std::size_t folds = 0;
  bool truncated = false;
  // Deterministic work counters (the v2 "counters" object).
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_reuses = 0;
  // Solve-cache counters (the solve_cache_* cases; zero elsewhere). The
  // hit pattern is deterministic, so compare_bench.py pins it too.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void take_fold_counters(const SopFoldStats& fold) {
    work_units = fold.work;
    peak_arena_bytes = fold.peak_arena_bytes;
    folds = fold.folds;
    arena_allocs = fold.arena_allocs;
    arena_reuses = fold.arena_reuses;
  }
};

// --- 2-CNF instance builders (deterministic) -------------------------------

std::vector<Bitset> random_graph(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bitset> adj(n, Bitset(n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.next_double() < p) {
        adj[i].set(j);
        adj[j].set(i);
      }
  return adj;
}

// Perfect matching on 2k vertices: the SOP has exactly 2^k minimal covers,
// so the fold doubles the term list at every split — pure fold throughput.
std::vector<Bitset> matching(std::size_t k) {
  std::vector<Bitset> adj(2 * k, Bitset(2 * k));
  for (std::size_t i = 0; i < k; ++i) {
    adj[2 * i].set(2 * i + 1);
    adj[2 * i + 1].set(2 * i);
  }
  return adj;
}

// Chain triples plus stride pairs — the shape of the hard instances in the
// verify recipe; dense enough that absorption does real work every fold.
std::vector<Bitset> stride_graph(std::size_t n) {
  std::vector<Bitset> adj(n, Bitset(n));
  auto edge = [&](std::size_t i, std::size_t j) {
    adj[i].set(j);
    adj[j].set(i);
  };
  for (std::size_t i = 0; i + 2 < n; ++i) {
    edge(i, i + 1);
    edge(i, i + 2);
  }
  for (std::size_t i = 0; i + 7 < n; i += 2) edge(i, i + 7);
  for (std::size_t i = 0; i + 11 < n; i += 3) edge(i, i + 11);
  return adj;
}

CaseResult run_sop_case(const std::string& name, const std::vector<Bitset>& adj,
                        std::size_t max_terms, int reps) {
  CaseResult out;
  out.name = name;
  out.wall_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    bool truncated = false;
    Truncation reason = Truncation::kNone;
    SopFoldStats fold;
    Timer t;
    const auto sop = two_cnf_to_minimal_sop(adj, max_terms, &truncated,
                                            ~0ull, ExecContext{}, &reason,
                                            &fold);
    const double secs = t.elapsed_seconds();
    if (secs < out.wall_seconds) out.wall_seconds = secs;
    out.take_fold_counters(fold);
    out.num_terms = sop.size();
    out.truncated = truncated;
  }
  return out;
}

// A Table-1 machine's valid maximally raised set, built as exact_encode
// builds it: FSM -> mixed constraints (Table 1's output-constraint budget)
// -> initial dichotomies -> raise and filter.
std::vector<Dichotomy> raised_set(const char* machine) {
  const Fsm fsm = make_mcnc_like(benchmark_spec(machine));
  ConstraintGenOptions gopts;
  gopts.max_dominance = static_cast<int>(fsm.num_states()) * 2;
  gopts.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
  const ConstraintSet cs = generate_mixed_constraints(fsm, gopts);
  return check_feasible(cs, ExecContext{}).raised;
}

// Prime generation for a Table-1 machine. planet and vmecont hit the term
// cutoff, like Table 1 (scaled down from the paper's 50000 to keep the
// regression harness fast).
CaseResult run_machine_case(const char* machine, int reps) {
  const std::vector<Dichotomy> raised = raised_set(machine);
  CaseResult out;
  out.name = std::string("primes_") + machine;
  out.wall_seconds = 1e30;
  PrimeGenOptions popts;
  popts.max_terms = 12000;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    const PrimeGenResult pg = generate_prime_dichotomies(raised, popts);
    const double secs = t.elapsed_seconds();
    if (secs < out.wall_seconds) out.wall_seconds = secs;
    out.take_fold_counters(pg.fold);
    out.num_terms = pg.fold.num_terms;
    out.truncated = pg.truncated;
  }
  return out;
}

// Prime generation of the repository benchmark's suite_exact machines under
// its budgets: 50000 terms, and a fresh 1e10-unit work budget per machine,
// which stops six of the nine folds. One repetition generates all nine;
// work, folds, terms and the arena allocs and reuses are summed over them
// (perfbench records the same sums as primes.fold_work and
// primes.sop_terms), and the peak arena bytes is the largest machine's.
CaseResult run_suite_exact_case(int reps) {
  static const char* const kMachines[] = {"bbsse",   "cse",    "dk512",
                                          "exlinp",  "keyb",   "kirkman",
                                          "master",  "s1",     "s1a"};
  std::vector<std::vector<Dichotomy>> raised;
  for (const char* machine : kMachines) raised.push_back(raised_set(machine));

  CaseResult out;
  out.name = "primes_suite_exact";
  out.wall_seconds = 1e30;
  PrimeGenOptions popts;
  popts.max_terms = 50000;
  for (int r = 0; r < reps; ++r) {
    CaseResult sum;  // this repetition's counters
    Timer t;
    for (const std::vector<Dichotomy>& ds : raised) {
      Budget budget;
      budget.set_work_limit(10'000'000'000ull);
      ExecContext ctx;
      ctx.budget = &budget;
      const PrimeGenResult pg = generate_prime_dichotomies(ds, popts, ctx);
      sum.work_units += pg.fold.work;
      sum.peak_arena_bytes =
          std::max(sum.peak_arena_bytes, pg.fold.peak_arena_bytes);
      sum.num_terms += pg.fold.num_terms;
      sum.folds += pg.fold.folds;
      sum.truncated = sum.truncated || pg.truncated;
      sum.arena_allocs += pg.fold.arena_allocs;
      sum.arena_reuses += pg.fold.arena_reuses;
    }
    sum.wall_seconds = std::min(t.elapsed_seconds(), out.wall_seconds);
    sum.name = out.name;
    out = sum;
  }
  return out;
}

// --- solve-cache repeat workload -------------------------------------------

// Overlapping face chains (the hard_instance shape from the solver tests):
// exact-solvable without budgets, with enough prime/cover work that a full
// pipeline run dwarfs a canonicalize+lookup round trip.
ConstraintSet chain_faces(int n) {
  ConstraintSet cs;
  for (int i = 0; i < n; ++i) cs.symbols().intern("s" + std::to_string(i));
  auto face = [&](std::initializer_list<int> m) {
    std::vector<std::uint32_t> ids;
    for (int id : m) ids.push_back(static_cast<std::uint32_t>(id));
    cs.add_face_ids(std::move(ids));
  };
  for (int i = 0; i + 2 < n; ++i) face({i, i + 1, i + 2});
  for (int i = 0; i + 7 < n; i += 2) face({i, i + 7});
  for (int i = 0; i + 11 < n; i += 3) face({i, i + 11});
  return cs;
}

// Solves the same canonical instance under 8 symbol renamings through the
// Solver facade — cold (cache off: 8 full pipeline runs) or cached (one
// run plus 7 canonicalize+lookup round trips). The pair quantifies the
// repeat-workload speedup; the deterministic 7-hits-of-8 pattern lands in
// the counters object.
CaseResult run_cache_case(const std::string& name, const ConstraintSet& cs,
                          bool cached, int reps) {
  const std::uint32_t n = cs.num_symbols();
  std::vector<ConstraintSet> renderings;
  for (std::uint32_t k = 0; k < 8; ++k) {
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i) perm[i] = (i + 3 * k) % n;
    renderings.push_back(apply_symbol_permutation(cs, perm));
  }
  CaseResult out;
  out.name = name;
  out.wall_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    SolveCache cache;
    SolveOptions opts;
    if (cached) opts.cache.store = &cache;
    std::size_t terms = 0;
    bool truncated = false;
    Timer t;
    for (const ConstraintSet& rcs : renderings) {
      const SolveResult res = Solver(rcs).encode(opts);
      terms += res.num_primes;
      truncated = truncated || res.truncated;
    }
    const double secs = t.elapsed_seconds();
    if (secs < out.wall_seconds) out.wall_seconds = secs;
    out.num_terms = terms;
    out.truncated = truncated;
    out.cache_hits = cache.stats().hits;
    out.cache_misses = cache.stats().misses;
  }
  return out;
}

void write_json(std::FILE* f, const std::vector<CaseResult>& cases) {
  std::fprintf(f, "{\n  \"schema\": \"encodesat-bench-primes-v2\",\n");
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                 "\"work_units\": %llu, \"peak_arena_bytes\": %zu, "
                 "\"num_terms\": %zu, \"folds\": %zu, \"truncated\": %s, "
                 "\"counters\": {\"arena_allocs\": %llu, "
                 "\"arena_reuses\": %llu, "
                 "\"cache_hits\": %llu, \"cache_misses\": %llu}}%s\n",
                 c.name.c_str(), c.wall_seconds,
                 static_cast<unsigned long long>(c.work_units),
                 c.peak_arena_bytes, c.num_terms, c.folds,
                 c.truncated ? "true" : "false",
                 static_cast<unsigned long long>(c.arena_allocs),
                 static_cast<unsigned long long>(c.arena_reuses),
                 static_cast<unsigned long long>(c.cache_hits),
                 static_cast<unsigned long long>(c.cache_misses),
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  const char* out_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else if (!std::strcmp(argv[i], "--quick"))
      quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--reps N] [--out FILE] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  std::vector<CaseResult> cases;
  // Figure 3's worked example as a smoke case (term count pinned at 5).
  {
    std::vector<Bitset> inc(5, Bitset(5));
    auto edge = [&](std::size_t i, std::size_t j) {
      inc[i].set(j);
      inc[j].set(i);
    };
    edge(0, 1);
    edge(0, 2);
    edge(1, 2);
    edge(2, 3);
    edge(3, 4);
    cases.push_back(run_sop_case("sop_section51", inc, 1000, reps));
  }
  cases.push_back(
      run_sop_case("sop_matching_k12", matching(12), 10000, reps));
  cases.push_back(run_sop_case("sop_random_n64_p06",
                               random_graph(64, 0.06, 12345), 20000, reps));
  cases.push_back(run_sop_case("sop_random_n56_p12",
                               random_graph(56, 0.12, 777), 20000, reps));
  cases.push_back(run_sop_case("sop_stride_n96", stride_graph(96), 20000,
                               reps));
  cases.push_back(run_machine_case("keyb", reps));
  cases.push_back(run_suite_exact_case(reps));
  {
    // Repeat workload: the same canonical instance under 8 symbol
    // permutations, cold vs. cached (part of the quick set so bench_check
    // guards the 7-hits-of-8 pattern).
    const ConstraintSet cs = chain_faces(10);
    cases.push_back(run_cache_case("solve_cold8_chain10", cs, false, reps));
    cases.push_back(run_cache_case("solve_cache8_chain10", cs, true, reps));
    const CaseResult& cold = cases[cases.size() - 2];
    const CaseResult& hot = cases[cases.size() - 1];
    if (hot.wall_seconds > 0)
      std::fprintf(stderr, "cache speedup: %.1fx (%llu/8 hits)\n",
                   cold.wall_seconds / hot.wall_seconds,
                   static_cast<unsigned long long>(hot.cache_hits));
  }
  if (!quick) {
    // The two Table-1 blow-up machines: the fold runs until the 50000-term
    // cutoff, exactly the regime the arena is built for.
    cases.push_back(run_machine_case("planet", reps));
    cases.push_back(run_machine_case("vmecont", reps));
  }

  std::printf("%-22s %12s %14s %12s %10s %6s %5s\n", "case", "wall_s",
              "work_units", "arena_bytes", "terms", "folds", "trunc");
  for (const CaseResult& c : cases)
    std::printf("%-22s %12.6f %14llu %12zu %10zu %6zu %5s\n", c.name.c_str(),
                c.wall_seconds, static_cast<unsigned long long>(c.work_units),
                c.peak_arena_bytes, c.num_terms, c.folds,
                c.truncated ? "yes" : "no");

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
  return 0;
}
