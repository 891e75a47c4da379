// Prime encoding-dichotomy generation (Section 5.1, Figure 2).
//
// Each prime encoding-dichotomy is a maximal compatible of the given
// dichotomies. Following Marcus (1964), the pairwise incompatibilities form
// a product of two-literal sums (a 2-CNF); rewriting it as an irredundant
// sum-of-products yields the minimal "deletion sets", whose complements are
// the maximal compatibles. The paper's contribution is the `cs`/`ps`
// recursion that performs the rewrite with a linear number of splits: the
// product of all sums containing the splitting variable x simplifies to
// (x + Π neighbours(x)); that two-term expression is multiplied into the
// recursive result for the remaining sums and minimized. The paper
// minimizes by single-cube containment; core/primes.cc keeps the same
// terms, in the same order, by testing each one's private edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dichotomy.h"
#include "util/bitset.h"
#include "util/exec.h"

namespace encodesat {

/// Work budget of one prime generation in bitset word operations (upper
/// bound) across all folds; an SOP that hovers just below max_terms for
/// thousands of folds is as hopeless as one that exceeds it, and this bound
/// catches that deterministically.
inline constexpr std::uint64_t kPrimeMaxWork = 500'000'000'000;

struct PrimeGenOptions {
  /// Abort when the intermediate SOP exceeds this many terms (the paper's
  /// Table 1 cuts off at 50000 primes for `planet` and `vmecont`).
  std::size_t max_terms = 200000;
};

/// Metrics of one cs/ps fold run, surfaced for the benchmark regression
/// harness (bench_primes emits them into BENCH_primes.json).
struct SopFoldStats {
  /// Word-operation units charged by the fold (same scale as Budget work).
  std::uint64_t work = 0;
  /// High-water mark of the term arena backing the fold, in bytes.
  std::size_t peak_arena_bytes = 0;
  /// Terms in the returned SOP (0 when truncated).
  std::size_t num_terms = 0;
  /// Variable splits folded back (one per peeled variable with edges).
  std::size_t folds = 0;
  /// Fresh arena slot creations (bump appends) across the fold.
  std::uint64_t arena_allocs = 0;
  /// Arena allocations served from the free list (no heap growth).
  std::uint64_t arena_reuses = 0;
};

struct PrimeGenResult {
  /// Maximal-compatible unions, deduplicated; empty if truncated.
  std::vector<Dichotomy> primes;
  /// Uniform truncation shape (see docs/API.md): `truncated` mirrors
  /// `truncation != Truncation::kNone`. PrimeGenOptions' term limit and
  /// kPrimeMaxWork report kTermLimit/kWorkBudget; a shared Budget adds
  /// deadline and cancellation reasons.
  bool truncated = false;
  Truncation truncation = Truncation::kNone;
  /// Number of terms in the final SOP (= number of maximal compatibles).
  std::size_t num_terms = 0;
  /// Fold-level metrics of the cs/ps rewrite.
  SopFoldStats fold;
};

/// Generates all prime encoding-dichotomies of `ds` (which must all share
/// one universe and be well formed). Exact duplicates in `ds` are tolerated.
/// The context supplies the shared budget (polled each fold), a stats node
/// (a "prime_generation" child is recorded) and the thread count for the
/// incompatibility-matrix construction.
PrimeGenResult generate_prime_dichotomies(const std::vector<Dichotomy>& ds,
                                          const PrimeGenOptions& opts = {},
                                          const ExecContext& ctx = {});

/// Exposed for tests and the Figure 3 bench: converts a 2-CNF given as
/// adjacency sets (edge {i,j} iff incompat[i].test(j)) into the minimal SOP
/// term list via the cs/ps recursion. Terms are Bitsets over num_vars.
/// `ctx.budget` is charged with the fold work and polled once per fold;
/// `reason` (optional) reports why the run truncated; `fold_stats`
/// (optional) receives the fold metrics of SopFoldStats. The fold itself
/// runs on a TermArena (util/term_arena.h) — the Bitset vectors at this
/// boundary are conversion shims, not the working representation.
/// Throws std::invalid_argument, naming the row, when a row's size is not
/// incompat.size(), a row sets its own bit, or an edge is one-sided.
std::vector<Bitset> two_cnf_to_minimal_sop(const std::vector<Bitset>& incompat,
                                           std::size_t max_terms,
                                           bool* truncated,
                                           std::uint64_t max_work = ~0ull,
                                           const ExecContext& ctx = {},
                                           Truncation* reason = nullptr,
                                           SopFoldStats* fold_stats = nullptr);

}  // namespace encodesat
