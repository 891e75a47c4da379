#include "core/encoder.h"

#include <algorithm>
#include <optional>

#include "core/output_rules.h"
#include "core/pipelines.h"
#include "core/verify.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

// Fan-out thresholds: below these sizes the per-thread dispatch overhead
// outweighs the work, so the loops stay inline regardless of ctx threads.
constexpr std::size_t kParallelGrain = 64;

int threads_for(const ExecContext& ctx, std::size_t n) {
  return n >= kParallelGrain ? ctx.num_threads : 1;
}

// Builds D from I: delete invalid dichotomies, raise the survivors to their
// maximal form, delete any that became invalid, and deduplicate. Raising is
// independent per dichotomy, so the loop fans out over `ctx.num_threads`
// with one result slot per input — the surviving order (and therefore the
// deduplicated set) matches the sequential path exactly.
std::vector<Dichotomy> valid_raised_set(
    const std::vector<InitialDichotomy>& initial, const ConstraintSet& cs,
    const ExecContext& ctx) {
  TRACE_SCOPE(ctx, "raise_pass");
  std::vector<std::optional<Dichotomy>> slots(initial.size());
  parallel_for(initial.size(), threads_for(ctx, initial.size()),
               [&](std::size_t i) {
                 Dichotomy raised = initial[i].dichotomy;
                 if (raise_and_validate(raised, cs))
                   slots[i] = std::move(raised);
               });
  std::vector<Dichotomy> d;
  d.reserve(initial.size());
  for (auto& s : slots)
    if (s) d.push_back(std::move(*s));
  dedupe_dichotomies(d);
  // Raising is per-item and the slot merge is order-preserving, so both
  // values are thread-count invariant (fingerprint-safe).
  metric_add(ctx, "raise.attempts", initial.size());
  metric_add(ctx, "raise.kept", d.size());
  return d;
}

std::vector<std::size_t> uncovered_initials(
    const std::vector<InitialDichotomy>& initial,
    const std::vector<Dichotomy>& d, const ExecContext& ctx) {
  TRACE_SCOPE(ctx, "coverage_check");
  std::vector<char> covered(initial.size(), 0);
  parallel_for(initial.size(), threads_for(ctx, initial.size()),
               [&](std::size_t i) {
                 for (const auto& raised : d) {
                   if (raised.covers(initial[i].dichotomy)) {
                     covered[i] = 1;
                     return;
                   }
                 }
               });
  std::vector<std::size_t> uncovered;
  for (std::size_t i = 0; i < initial.size(); ++i)
    if (!covered[i]) uncovered.push_back(i);
  return uncovered;
}

}  // namespace

FeasibilityResult check_feasible(const ConstraintSet& cs,
                                 const ExecContext& ctx) {
  StageScope stage(ctx, "feasibility");
  FeasibilityResult res;
  res.initial = generate_initial_dichotomies(cs);
  res.raised = valid_raised_set(res.initial, cs, stage.ctx());
  res.uncovered = uncovered_initials(res.initial, res.raised, stage.ctx());
  res.feasible = res.uncovered.empty();
  stage.add_items(res.initial.size());
  return res;
}

SolveOutcome exact_encode(const ConstraintSet& cs,
                          const ExactEncodeOptions& opts,
                          const ExecContext& ctx) {
  SolveOutcome res;
  const std::uint32_t n = cs.num_symbols();

  std::vector<InitialDichotomy> initial;
  std::vector<Dichotomy> d;
  {
    StageScope stage(ctx, "initial_dichotomies");
    initial = generate_initial_dichotomies(cs);
    res.num_initial = initial.size();
    stage.add_items(initial.size());
  }
  {
    StageScope stage(ctx, "raise");
    d = valid_raised_set(initial, cs, stage.ctx());
    res.num_raised = d.size();
    stage.add_items(d.size());

    res.uncovered = uncovered_initials(initial, d, stage.ctx());
  }
  if (!res.uncovered.empty()) {
    res.status = SolveOutcome::Status::kInfeasible;
    return res;
  }

  // Trivial but legal corner: one symbol, no constraints to separate.
  if (n <= 1) {
    res.status = SolveOutcome::Status::kEncoded;
    res.minimal = true;
    res.encoding.bits = n == 0 ? 0 : 1;
    res.encoding.codes.assign(n, 0);
    return res;
  }

  PrimeGenResult pg = generate_prime_dichotomies(d, opts.prime_options, ctx);
  if (pg.truncated) {
    res.status = SolveOutcome::Status::kTruncated;
    res.truncation = pg.truncation;
    return res;
  }
  res.num_primes = pg.primes.size();

  // Keep only primes that still satisfy the output constraints. A union of
  // valid dichotomies can trip an implication none of its constituents did
  // (e.g. scatter all children of a right-block disjunctive parent into the
  // left block), so each prime is also re-raised to its maximal form —
  // required for the default-to-right code derivation of Theorem 6.1.
  // Validation is independent per prime: slot-per-index fan-out again.
  std::vector<Dichotomy> candidates;
  {
    StageScope stage(ctx, "validate_primes");
    std::vector<std::optional<Dichotomy>> slots(pg.primes.size());
    parallel_for(pg.primes.size(), threads_for(ctx, pg.primes.size()),
                 [&](std::size_t i) {
                   Dichotomy& p = pg.primes[i];
                   if (raise_and_validate(p, cs)) slots[i] = std::move(p);
                 });
    candidates.reserve(pg.primes.size() + d.size());
    for (auto& s : slots)
      if (s) candidates.push_back(std::move(*s));
    res.num_valid_primes = candidates.size();
    metric_add(stage.ctx(), "primes.validate_attempts", pg.primes.size());
    metric_add(stage.ctx(), "primes.validate_kept", candidates.size());
    // Safety net: the valid maximally raised dichotomies themselves remain
    // legal columns (Theorem 6.1 proves they suffice for feasibility), so a
    // prime lost to post-union validity filtering never costs us a solution.
    for (const Dichotomy& raised : d) candidates.push_back(raised);
    dedupe_dichotomies(candidates);
    stage.add_items(candidates.size());
  }
  if (!ctx.poll()) {
    res.status = SolveOutcome::Status::kTruncated;
    res.truncation = ctx.reason();
    return res;
  }

  // Exact unate covering: rows = initial dichotomies, columns = candidates.
  UnateCoverProblem problem;
  problem.num_columns = candidates.size();
  problem.rows.resize(initial.size());
  {
    StageScope stage(ctx, "cover_table");
    parallel_for(initial.size(), threads_for(ctx, initial.size()),
                 [&](std::size_t i) {
                   Bitset row(problem.num_columns);
                   for (std::size_t c = 0; c < candidates.size(); ++c)
                     if (candidates[c].covers(initial[i].dichotomy))
                       row.set(c);
                   problem.rows[i] = std::move(row);
                 });
    stage.add_items(initial.size());
    metric_add(stage.ctx(), "cover.table_rows", problem.rows.size());
    metric_add(stage.ctx(), "cover.table_columns", problem.num_columns);
  }
  const CoverSolution cover =
      solve_unate_cover(problem, opts.cover_options, ctx);
  res.nodes_explored = cover.nodes_explored;
  if (!cover.feasible) {
    // Cannot happen when the feasibility check passed (Theorem 6.1), but
    // report honestly rather than asserting in release builds.
    res.status = SolveOutcome::Status::kInfeasible;
    return res;
  }

  std::vector<Dichotomy> columns;
  columns.reserve(cover.columns.size());
  for (std::size_t c : cover.columns) columns.push_back(candidates[c]);

  res.status = SolveOutcome::Status::kEncoded;
  res.minimal = cover.optimal;
  res.truncation = cover.truncation;
  res.encoding = derive_codes(n, columns);
  return res;
}

bool verify_infeasibility_witness(const ConstraintSet& cs,
                                  const FeasibilityResult& result,
                                  std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (result.feasible) return fail("result is feasible; nothing to witness");
  if (result.uncovered.empty())
    return fail("infeasible verdict carries no uncovered witness");
  for (std::size_t i : result.uncovered) {
    if (i >= result.initial.size())
      return fail("witness index " + std::to_string(i) +
                  " out of range (initial has " +
                  std::to_string(result.initial.size()) + ")");
    const Dichotomy& want = result.initial[i].dichotomy;
    for (std::size_t j = 0; j < result.raised.size(); ++j)
      if (result.raised[j].covers(want))
        return fail("raised dichotomy " + std::to_string(j) +
                    " covers 'uncovered' initial dichotomy " +
                    std::to_string(i));
  }
  for (std::size_t j = 0; j < result.raised.size(); ++j)
    if (!dichotomy_valid(result.raised[j], cs))
      return fail("raised dichotomy " + std::to_string(j) +
                  " violates an output constraint");
  return true;
}

}  // namespace encodesat
