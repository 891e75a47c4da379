#include "fuzz/differential.h"

#include <algorithm>

#include "baseline/annealing.h"
#include "baseline/nova.h"
#include "cache/canonical.h"
#include "cache/solve_cache.h"
#include "core/bounded.h"
#include "core/local_check.h"
#include "core/solver.h"
#include "core/verify.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

// Thread count of the second solver run compared against threads=1.
constexpr int kAltThreads = 4;

// Per-component cover node budget of the `binate_truncation` rule's two
// extra solves: deliberately tiny so non-trivial cases truncate inside the
// binate cover search rather than finishing.
constexpr std::uint64_t kBinateTruncationNodes = 2;

// Serializes the deterministic part of a stats tree (name, work, items,
// truncation — wall-clock excluded) for run-to-run comparison. Covers the
// arena fold counters, which the prime-generation stage reports as work.
void stats_fingerprint(const StageStats& s, std::string& out) {
  out += s.name;
  out += '{';
  out += std::to_string(s.work);
  out += ',';
  out += std::to_string(s.items);
  out += ',';
  out += truncation_name(s.truncation);
  for (const StageStats& c : s.children) {
    out += ';';
    stats_fingerprint(c, out);
  }
  out += '}';
}

std::string stats_fingerprint(const StageStats& s) {
  std::string out;
  stats_fingerprint(s, out);
  return out;
}

SolveOptions solve_options(const DifferentialOptions& opts, int threads) {
  SolveOptions so;
  so.exec.threads = threads;
  so.exec.max_work = opts.max_work_per_case;
  so.exact.cover_options.max_nodes = opts.max_cover_nodes;
  so.extensions.cover_options.max_nodes = opts.max_cover_nodes;
  return so;
}

bool counters_equal(const SolveResult& a, const SolveResult& b) {
  return a.num_initial == b.num_initial && a.num_raised == b.num_raised &&
         a.num_primes == b.num_primes &&
         a.num_valid_primes == b.num_valid_primes &&
         a.num_candidates == b.num_candidates &&
         a.num_aux_columns == b.num_aux_columns &&
         a.nodes_explored == b.nodes_explored;
}

std::size_t count_kind(const std::vector<Violation>& vs, Violation::Kind k) {
  return static_cast<std::size_t>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.kind == k; }));
}

}  // namespace

const char* fuzz_rule_name(FuzzRule rule) {
  switch (rule) {
    case FuzzRule::kOracle: return "oracle";
    case FuzzRule::kFeasibility: return "feasibility";
    case FuzzRule::kLocalUnsound: return "local_unsound";
    case FuzzRule::kWitness: return "witness";
    case FuzzRule::kThreads: return "threads";
    case FuzzRule::kStats: return "stats";
    case FuzzRule::kBaselineFeasible: return "baseline_feasible";
    case FuzzRule::kBaselineCodes: return "baseline_codes";
    case FuzzRule::kMinimality: return "minimality";
    case FuzzRule::kBoundedCodes: return "bounded_codes";
    case FuzzRule::kCost: return "cost";
    case FuzzRule::kCounters: return "counters";
    case FuzzRule::kHistograms: return "histograms";
    case FuzzRule::kCache: return "cache";
    case FuzzRule::kBinateTruncation: return "binate_truncation";
  }
  return "unknown";
}

bool fuzz_rule_from_name(const std::string& name, FuzzRule* rule) {
  static constexpr FuzzRule kAll[] = {
      FuzzRule::kOracle,       FuzzRule::kFeasibility,
      FuzzRule::kLocalUnsound, FuzzRule::kWitness,
      FuzzRule::kThreads,      FuzzRule::kStats,
      FuzzRule::kBaselineFeasible, FuzzRule::kBaselineCodes,
      FuzzRule::kMinimality,   FuzzRule::kBoundedCodes,
      FuzzRule::kCost,         FuzzRule::kCounters,
      FuzzRule::kHistograms,   FuzzRule::kCache,
      FuzzRule::kBinateTruncation,
  };
  for (FuzzRule r : kAll)
    if (name == fuzz_rule_name(r)) {
      if (rule) *rule = r;
      return true;
    }
  return false;
}

FuzzCaseResult run_differential_case(const ConstraintSet& cs,
                                     const DifferentialOptions& opts) {
  FuzzCaseResult out;
  const std::uint32_t n = cs.num_symbols();
  if (n < 2) return out;
  auto diverge = [&](FuzzRule rule, std::string detail) {
    out.divergences.push_back(FuzzDivergence{rule, std::move(detail)});
  };

  // P-1 feasibility with evidence, and the local necessary-conditions
  // check it subsumes.
  Solver solver(cs);
  const FeasibilityResult feas = solver.feasibility();
  out.feasible = feas.feasible;
  if (!local_consistency_feasible(cs) && feas.feasible)
    diverge(FuzzRule::kLocalUnsound,
            "local necessary conditions fail but exact check says feasible");
  if (!feas.feasible) {
    std::string why;
    if (!verify_infeasibility_witness(cs, feas, &why))
      diverge(FuzzRule::kWitness, why);
  }

  // Exact / extension encode, sequential and threaded, each with a private
  // counter registry so the structural fingerprints can be compared. Both
  // go through the unified solve() entry point — the same surface the CLI
  // and the service broker use — so the fuzzer also exercises the status
  // mapping layer on every case.
  MetricsRegistry ma, mb;
  SolveRequest req;
  req.constraints = cs;
  req.options = solve_options(opts, 1);
  req.options.exec.metrics = &ma;
  const SolveResult a = solve(req).result;
  req.options = solve_options(opts, kAltThreads);
  req.options.exec.metrics = &mb;
  const SolveResult b = solve(req).result;
  out.truncated = a.truncated || b.truncated;
  out.encoded = a.status == SolveResult::Status::kEncoded;

  if (!a.truncated && !b.truncated) {
    if (a.status != b.status || a.encoding.bits != b.encoding.bits ||
        a.encoding.codes != b.encoding.codes || !counters_equal(a, b))
      diverge(FuzzRule::kThreads,
              std::string("threads=1 -> ") + solve_status_name(a.status) +
                  " " + std::to_string(a.encoding.bits) + " bits, threads=" +
                  std::to_string(kAltThreads) + " -> " +
                  solve_status_name(b.status) + " " +
                  std::to_string(b.encoding.bits) + " bits");
    if (stats_fingerprint(a.stats) != stats_fingerprint(b.stats))
      diverge(FuzzRule::kStats,
              "stage-stats fingerprints differ between thread counts");
    // Twelfth rule: the counter registries must be structurally identical
    // (same names, same values). Gated on neither run truncating — a
    // deadline or cancellation trips at scheduling-dependent points, and
    // counters accumulated up to the trip legitimately differ.
    if (ma.fingerprint() != mb.fingerprint())
      diverge(FuzzRule::kCounters,
              "counter fingerprints differ between thread counts: threads=1 "
              "-> " +
                  std::to_string(ma.fingerprint_hash()) + ", threads=" +
                  std::to_string(kAltThreads) + " -> " +
                  std::to_string(mb.fingerprint_hash()));
    // Fifteenth rule: bucket counts of the fingerprint histograms
    // (solve.work, solve.stage_work) must match across thread counts —
    // the histogram layer's own determinism check, same truncation gate
    // as the counters rule. Duration histograms (in_fingerprint=false)
    // are excluded by construction.
    if (ma.histogram_fingerprint() != mb.histogram_fingerprint())
      diverge(FuzzRule::kHistograms,
              "histogram bucket fingerprints differ between thread counts: "
              "threads=1 -> " +
                  ma.histogram_fingerprint() + ", threads=" +
                  std::to_string(kAltThreads) + " -> " +
                  mb.histogram_fingerprint());
  }
  if (opts.metrics) opts.metrics->merge_from(ma);

  const bool has_extensions = cs.has_extension_constraints();
  if (!a.truncated) {
    if (out.encoded) {
      const auto violations = verify_encoding(a.encoding, cs);
      if (!violations.empty())
        diverge(FuzzRule::kOracle,
                "encoding fails oracle: " + violations.front().to_string() +
                    (violations.size() > 1
                         ? " (+" + std::to_string(violations.size() - 1) +
                               " more)"
                         : ""));
    }
    // P-1 models face/output constraints only; with §8 extension
    // constraints present it stays necessary but not sufficient.
    if (!has_extensions && out.encoded != feas.feasible)
      diverge(FuzzRule::kFeasibility,
              std::string("feasibility says ") +
                  (feas.feasible ? "feasible" : "infeasible") +
                  " but encode returned " + solve_status_name(a.status));
    if (has_extensions && !feas.feasible &&
        a.status == SolveResult::Status::kEncoded)
      diverge(FuzzRule::kFeasibility,
              "P-1 infeasible but the extension pipeline encoded");
  }

  // Thirteenth rule: cache round-trip. Solve the case with a private warm
  // cache, then a symbol-reversed copy twice — against the warm cache
  // (normally served from the entry the first solve stored) and against a
  // fresh cache at the alternate thread count (recomputed from scratch).
  // The cache-enabled facade solves the canonical instance either way, so
  // the two permuted-copy results must be bit-identical, hit or miss; and
  // when both canonicalizations are exact, the warm lookup must hit.
  if (opts.check_cache && !a.truncated) {
    std::vector<std::uint32_t> rev(n);
    for (std::uint32_t i = 0; i < n; ++i) rev[i] = n - 1 - i;
    const ConstraintSet permuted = apply_symbol_permutation(cs, rev);
    const Solver permuted_solver(permuted);

    const CacheConfig cache_config{opts.cache_max_bytes};
    SolveCache warm(cache_config), fresh(cache_config);
    SolveOptions sw = solve_options(opts, 1);
    sw.cache.store = &warm;
    const SolveResult c1 = solver.encode(sw);
    const SolveResult c2 = permuted_solver.encode(sw);
    SolveOptions sf = solve_options(opts, kAltThreads);
    sf.cache.store = &fresh;
    const SolveResult c3 = permuted_solver.encode(sf);

    if (!c1.truncated && !c2.truncated && !c3.truncated) {
      if (c2.status != c3.status || c2.encoding.bits != c3.encoding.bits ||
          c2.encoding.codes != c3.encoding.codes ||
          c2.minimal != c3.minimal || c2.truncation != c3.truncation ||
          !counters_equal(c2, c3))
        diverge(FuzzRule::kCache,
                std::string("warm-cache solve -> ") +
                    solve_status_name(c2.status) + " " +
                    std::to_string(c2.encoding.bits) +
                    " bits, fresh-cache solve -> " +
                    solve_status_name(c3.status) + " " +
                    std::to_string(c3.encoding.bits) + " bits");
      for (const SolveResult* r : {&c1, &c2})
        if (r->status == SolveResult::Status::kEncoded) {
          const auto violations =
              verify_encoding(r->encoding, r == &c1 ? cs : permuted);
          if (!violations.empty()) {
            diverge(FuzzRule::kCache,
                    "cache-path encoding fails oracle: " +
                        violations.front().to_string());
            break;
          }
        }
      if (warm.stats().hits == 0 && canonicalize(cs).canon.exact &&
          canonicalize(permuted).canon.exact)
        diverge(FuzzRule::kCache,
                "exact canonical forms of a symbol permutation did not "
                "share a cache entry");
    }
  }

  // Fourteenth rule: binate truncation honesty. Force the extension
  // pipeline (so every case exercises the binate cover search, whatever
  // its constraint mix) with a deliberately tiny per-component node
  // budget. A budget that expires mid-search is never an infeasibility
  // certificate, and node/work budgets trip at thread-count-independent
  // points, so the threads=1 and threads=N runs must be bit-identical
  // whenever no wall-clock limit (deadline/cancellation) was involved.
  {
    auto tiny_solve = [&](int threads) {
      SolveRequest tr;
      tr.constraints = cs;
      tr.options = solve_options(opts, threads);
      tr.options.pipeline = SolveOptions::Pipeline::kExtensions;
      tr.options.extensions.cover_options.max_nodes = kBinateTruncationNodes;
      return solve(tr).result;
    };
    const SolveResult t1 = tiny_solve(1);
    const SolveResult tn = tiny_solve(kAltThreads);
    for (const SolveResult* r : {&t1, &tn})
      if (r->status == SolveResult::Status::kInfeasible && r->truncated)
        diverge(FuzzRule::kBinateTruncation,
                std::string("tiny cover budget reported infeasible together "
                            "with truncation ") +
                    truncation_name(r->truncation));
    auto deterministic = [](const SolveResult& r) {
      return r.truncation != Truncation::kDeadline &&
             r.truncation != Truncation::kCancelled;
    };
    if (deterministic(t1) && deterministic(tn) &&
        (t1.status != tn.status || t1.truncated != tn.truncated ||
         t1.truncation != tn.truncation ||
         t1.encoding.bits != tn.encoding.bits ||
         t1.encoding.codes != tn.encoding.codes || !counters_equal(t1, tn)))
      diverge(FuzzRule::kBinateTruncation,
              std::string("tiny cover budget: threads=1 -> ") +
                  solve_status_name(t1.status) + "/" +
                  truncation_name(t1.truncation) + " " +
                  std::to_string(t1.encoding.bits) + " bits, threads=" +
                  std::to_string(kAltThreads) + " -> " +
                  solve_status_name(tn.status) + "/" +
                  truncation_name(tn.truncation) + " " +
                  std::to_string(tn.encoding.bits) + " bits");
  }

  const int minlen = minimum_code_length(n);
  const bool exact_infeasible =
      !a.truncated && a.status == SolveResult::Status::kInfeasible;

  if (minlen <= 12) {
    const Encoding nova = nova_encode(cs, minlen);
    AnnealOptions aopts;
    aopts.cost = CostKind::kViolatedFaces;
    aopts.temperature_points = 12;
    aopts.moves_per_temperature = 5;
    const Encoding anneal = anneal_encode(cs, minlen, aopts).encoding;

    const auto nova_violations = verify_encoding(nova, cs);
    const auto anneal_violations = verify_encoding(anneal, cs);
    if (count_kind(nova_violations, Violation::Kind::kDuplicateCode) > 0)
      diverge(FuzzRule::kBaselineCodes, "nova produced duplicate codes");
    if (count_kind(anneal_violations, Violation::Kind::kDuplicateCode) > 0)
      diverge(FuzzRule::kBaselineCodes, "annealing produced duplicate codes");
    // Infeasible means no encoding of any length satisfies everything, so
    // a violation-free baseline encoding refutes the verdict outright.
    // Extension instances are exempt: their candidate pool is heuristic
    // (tests/oracle_extensions_test.cc bounds its incompleteness), so an
    // extension-pipeline "infeasible" is not a certificate.
    if (!has_extensions && exact_infeasible && nova_violations.empty())
      diverge(FuzzRule::kBaselineFeasible,
              "exact says infeasible but nova satisfied every constraint at " +
                  std::to_string(minlen) + " bits");
    if (!has_extensions && exact_infeasible && anneal_violations.empty())
      diverge(FuzzRule::kBaselineFeasible,
              "exact says infeasible but annealing satisfied every "
              "constraint at " +
                  std::to_string(minlen) + " bits");
  }

  // A violation-free encoding below the proved-minimal length refutes the
  // minimality proof (exact pipeline only; the extension pipeline's
  // `minimal` is relative to its candidate column set).
  if (!a.truncated && out.encoded && a.minimal && !has_extensions &&
      a.encoding.bits > minlen && a.encoding.bits <= 12) {
    for (int bits = minlen; bits < a.encoding.bits; ++bits) {
      const Encoding alt = nova_encode(cs, bits);
      if (verify_encoding(alt, cs).empty()) {
        diverge(FuzzRule::kMinimality,
                "exact proved minimality at " +
                    std::to_string(a.encoding.bits) +
                    " bits but nova satisfied every constraint at " +
                    std::to_string(bits));
        break;
      }
    }
  }

  if (minlen <= 12) {
    BoundedEncodeOptions bo;
    bo.cost = CostKind::kViolatedFaces;
    bo.polish_passes = 1;
    const BoundedEncodeResult br = bounded_encode(cs, minlen, bo);
    const auto violations = verify_encoding(br.encoding, cs);
    if (count_kind(violations, Violation::Kind::kDuplicateCode) > 0)
      diverge(FuzzRule::kBoundedCodes,
              "bounded_encode produced duplicate codes");
    const std::size_t oracle_faces =
        count_kind(violations, Violation::Kind::kFace);
    if (static_cast<std::size_t>(br.cost.violated_faces) != oracle_faces)
      diverge(FuzzRule::kCost,
              "bounded cost reports " +
                  std::to_string(br.cost.violated_faces) +
                  " violated faces, oracle counts " +
                  std::to_string(oracle_faces));
  }

  return out;
}

std::string FuzzReport::summary() const {
  std::string s = "fuzz: seed " + std::to_string(seed) + ", " +
                  std::to_string(cases) + " cases, " +
                  std::to_string(feasible) + " feasible / " +
                  std::to_string(infeasible) + " infeasible, " +
                  std::to_string(truncated) + " truncated, " +
                  std::to_string(divergent.size()) + " divergences";
  return s;
}

FuzzReport run_fuzz(std::uint64_t seed, std::uint64_t cases,
                    const FuzzRunOptions& opts) {
  FuzzReport report;
  report.seed = seed;
  report.cases = cases;

  // Per-case seeds make the stream independent of scheduling; results are
  // collected into index-addressed slots and aggregated in order, so the
  // report is bit-identical for every driver thread count.
  std::vector<FuzzCaseResult> results(cases);
  parallel_for(cases, resolve_threads(opts.threads), [&](std::size_t i) {
    TraceScope span(opts.tracer, "fuzz_case");
    const ConstraintSet cs =
        generate_case(fuzz_case_seed(seed, i), opts.generator);
    results[i] = run_differential_case(cs, opts.differential);
  });

  for (std::uint64_t i = 0; i < cases; ++i) {
    const FuzzCaseResult& r = results[i];
    if (r.truncated) ++report.truncated;
    if (r.feasible)
      ++report.feasible;
    else
      ++report.infeasible;
    if (!r.ok()) {
      FuzzDivergentCase d;
      d.index = i;
      d.case_seed = fuzz_case_seed(seed, i);
      d.result = r;
      d.constraints_text =
          generate_case(d.case_seed, opts.generator).to_string();
      report.divergent.push_back(std::move(d));
    }
  }
  return report;
}

}  // namespace encodesat
