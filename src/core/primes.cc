#include "core/primes.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

// A surviving term t ∪ N of one fold, held stripped of N (t \ N) until it
// is sorted, with its sort key: (popcount, folded signature, word-lex).
struct StrippedTerm {
  std::uint32_t count;
  std::uint64_t sig;
  TermRef ref;
};

// A member v of a fold's `near \ N`, with |P_v|, P_v = folded[v] \ N. Its
// P_v words live in the fold's flat probe buffer.
struct Probe {
  std::uint32_t count;
  std::uint32_t v;
};

// Throws std::invalid_argument, naming the row, unless `incompat` is an
// m x m symmetric adjacency matrix without loops: the fold indexes rows by
// the bits it reads, and its terms are minimal vertex covers only of such
// a graph.
void check_adjacency(const std::vector<Bitset>& incompat) {
  const std::size_t m = incompat.size();
  auto fail = [](std::size_t i, const std::string& what) {
    throw std::invalid_argument("two_cnf_to_minimal_sop: row " +
                                std::to_string(i) + " " + what);
  };
  for (std::size_t i = 0; i < m; ++i)
    if (incompat[i].size() != m)
      fail(i, "has " + std::to_string(incompat[i].size()) + " bits, not " +
                  std::to_string(m));
  for (std::size_t i = 0; i < m; ++i) {
    if (incompat[i].test(i)) fail(i, "sets its own bit");
    incompat[i].for_each([&](std::size_t j) {
      if (!incompat[j].test(i))
        fail(i, "sets bit " + std::to_string(j) + " but row " +
                    std::to_string(j) + " does not set bit " +
                    std::to_string(i));
    });
  }
}

}  // namespace

std::vector<Bitset> two_cnf_to_minimal_sop(const std::vector<Bitset>& incompat,
                                           std::size_t max_terms,
                                           bool* truncated,
                                           std::uint64_t max_work,
                                           const ExecContext& ctx,
                                           Truncation* reason,
                                           SopFoldStats* fold_stats) {
  check_adjacency(incompat);
  const std::size_t m = incompat.size();
  if (truncated) *truncated = false;
  if (reason) *reason = Truncation::kNone;
  // Stage-local limits (terms, the local work option) are reported to the
  // caller but never tripped into the shared budget: a truncated stage must
  // not poison budget checks in unrelated later stages.
  auto truncate = [&](Truncation why) -> std::vector<Bitset> {
    if (truncated) *truncated = true;
    if (reason) *reason = why;
    return {};
  };

  // Peel variables one at a time (the cs recursion, iteratively): at each
  // step remove the remaining variable x of maximum residual degree
  // together with its incident sums, remembering (x, neighbours(x)).
  std::vector<Bitset> residual = incompat;
  std::vector<std::pair<std::size_t, Bitset>> splits;
  std::vector<std::size_t> degree(m, 0);
  for (std::size_t i = 0; i < m; ++i) degree[i] = residual[i].count();

  while (true) {
    std::size_t x = m;
    std::size_t best = 0;
    for (std::size_t i = 0; i < m; ++i)
      if (degree[i] > best) {
        best = degree[i];
        x = i;
      }
    if (x == m) break;  // no edges left
    splits.emplace_back(x, residual[x]);
    // Remove every sum containing x.
    residual[x].for_each([&](std::size_t j) {
      residual[j].reset(x);
      degree[j] = residual[j].count();
    });
    residual[x] = Bitset(m);
    degree[x] = 0;
  }

  // Fold back: SOP := ps(x_expr, SOP) from the innermost split outwards.
  // x_expr = x + Π neighbours(x), so each term t either gains {x} or gains
  // the neighbour set N, and the result is kept minimal.
  //
  // Every SOP term is a minimal vertex cover of the edges folded so far,
  // and a vertex cover is minimal iff each member keeps a private edge, an
  // edge to a vertex outside the cover. So each candidate is decided on its
  // own against `folded`, the adjacency of those edges, with no pairwise
  // containment scan. x is in no term and has no folded edge yet (it was
  // peeled before every vertex folded so far), hence:
  //  * t ∪ {x} is minimal iff N ⊄ t (x keeps an edge to N \ t);
  //  * t ∪ N is minimal iff every v ∈ t \ N still has a neighbour outside
  //    t ∪ N. Each v had one outside t; only a v adjacent to N can have
  //    lost it, so only those are checked. When N ⊆ t, t ∪ N = t passes.
  //    folded[v] \ N is the same for every term of a fold, so the fold
  //    makes it once, a probe P_v for each v ∈ near \ N, and v fails iff
  //    P_v ⊆ t. The probes run by (|P_v|, v), which only makes a failure
  //    show sooner: the test is a conjunction.
  // The next SOP is the {t ∪ {x}} survivors in the old order, then the
  // survivors from terms that meet N, sorted by their stripped t \ N and
  // deduplicated, then those from N-disjoint terms in the old order. An
  // N-disjoint t and a meeting s give t ∪ N = s ∪ N only if t ⊂ s, which
  // two minimal covers rule out, so only the sorted run can hold
  // duplicates. The order is part of the result: the cover table and the
  // covering search downstream follow it (tests/data/sop_v1.golden).
  //
  // The working terms live in a flat TermArena (util/term_arena.h): one
  // contiguous buffer with O(1) free-list reuse, holding only surviving
  // terms. The Bitset vectors at this function's boundary are conversion
  // shims only.
  TermArena arena(m, /*reserve_terms=*/256);
  std::vector<TermRef> sop, next, disjoint;
  std::vector<StrippedTerm> stripped;
  sop.push_back(arena.alloc());  // cs of the empty expression: constant 1
  std::vector<Bitset> folded(m, Bitset(m));
  Bitset near(m);
  std::vector<Probe> probes;
  std::vector<std::uint64_t> probe_words;  // P_v of probes[i] at i * words

  std::uint64_t work = 0;
  const std::uint64_t words = (m + 63) / 64;
  auto fill_fold_stats = [&] {
    if (!fold_stats) return;
    fold_stats->peak_arena_bytes = arena.peak_bytes();
    fold_stats->arena_allocs = arena.total_allocs();
    fold_stats->arena_reuses = arena.total_reuses();
  };
  auto truncate_fold = [&](Truncation why) {
    fill_fold_stats();
    return truncate(why);
  };
  for (auto it = splits.rbegin(); it != splits.rend(); ++it) {
    TRACE_SCOPE(ctx, "sop_fold");
    const std::size_t x = it->first;
    const Bitset& nbrs = it->second;
    // Work accounting (in bitset word operations): each fold charges
    // |SOP|^2 * 3/2 * words, the upper bound of a pairwise single-cube
    // containment pass over its candidates. The private-edge test does far
    // less; the unit stays so that work budgets trip at the same folds.
    const std::uint64_t fold_work =
        (static_cast<std::uint64_t>(sop.size()) * sop.size() * 3 / 2) * words;
    work += fold_work;
    if (fold_stats) {
      fold_stats->work = work;
      ++fold_stats->folds;
    }
    if (work > max_work) return truncate_fold(Truncation::kWorkBudget);
    // The shared budget sees the same work units; its deadline and
    // cancellation flag are polled once per fold, bounding the latency of a
    // truncated return by one fold.
    if (!ctx.charge(fold_work)) return truncate_fold(ctx.reason());
    if (!ctx.poll()) return truncate_fold(ctx.reason());
    // Bail out before the fold on a hopeless blow-up: every term leaves at
    // least one survivor in the next SOP, so the SOP never shrinks.
    if (sop.size() > max_terms) return truncate_fold(Truncation::kTermLimit);

    const std::uint64_t* nw = nbrs.words();
    near.clear();
    nbrs.for_each([&](std::size_t n) { near |= folded[n]; });
    near.subtract(nbrs);
    probes.clear();
    near.for_each([&](std::size_t v) {
      const std::uint64_t* row = folded[v].words();
      std::uint32_t count = 0;
      for (std::size_t k = 0; k < words; ++k)
        count += static_cast<std::uint32_t>(std::popcount(row[k] & ~nw[k]));
      probes.push_back({count, static_cast<std::uint32_t>(v)});
    });
    std::sort(probes.begin(), probes.end(), [](Probe a, Probe b) {
      return a.count != b.count ? a.count < b.count : a.v < b.v;
    });
    probe_words.resize(probes.size() * words);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::uint64_t* row = folded[probes[i].v].words();
      for (std::size_t k = 0; k < words; ++k)
        probe_words[i * words + k] = row[k] & ~nw[k];
    }
    // True iff every member of t \ N adjacent to N has a folded neighbour
    // outside t ∪ N: no probe of a member of t lies inside t.
    auto keeps_private_edges = [&](const std::uint64_t* tw) {
      const std::uint64_t* pw = probe_words.data();
      for (const Probe& p : probes) {
        if ((tw[p.v >> 6] >> (p.v & 63)) & 1) {
          std::size_t k = 0;
          while (k < words && (pw[k] & ~tw[k]) == 0) ++k;
          if (k == words) return false;
        }
        pw += words;
      }
      return true;
    };
    // Strips N from s and queues it for the sort.
    auto push_stripped = [&](TermRef s) {
      std::uint64_t* sw = arena.data(s);
      for (std::size_t k = 0; k < words; ++k) sw[k] &= ~nw[k];
      stripped.push_back({static_cast<std::uint32_t>(arena.count(s)),
                          arena.signature(s), s});
    };

    next.clear();
    stripped.clear();
    disjoint.clear();
    for (const TermRef t : sop) {
      const std::uint64_t* tw = arena.data(t);
      bool meets = false;
      bool holds = true;
      for (std::size_t k = 0; k < words; ++k) {
        meets = meets || (tw[k] & nw[k]) != 0;
        holds = holds && (nw[k] & ~tw[k]) == 0;
      }
      if (holds) {  // t ∪ {x} is absorbed by t ∪ N = t, which survives.
        push_stripped(t);
        continue;
      }
      if (keeps_private_edges(tw)) {
        const TermRef u = arena.clone(t);  // may move the buffer (tw)
        if (meets)
          push_stripped(u);
        else
          disjoint.push_back(u);
      }
      arena.set(t, x);
      next.push_back(t);
    }
    std::sort(stripped.begin(), stripped.end(),
              [&](const StrippedTerm& a, const StrippedTerm& b) {
                if (a.count != b.count) return a.count < b.count;
                if (a.sig != b.sig) return a.sig < b.sig;
                return arena.less(a.ref, b.ref);
              });
    const std::size_t first_with_nbrs = next.size();
    for (std::size_t j = 0; j < stripped.size(); ++j) {
      // Duplicates are adjacent in the sort order.
      if (j > 0 && arena.equal(stripped[j].ref, next.back()))
        arena.release(stripped[j].ref);
      else
        next.push_back(stripped[j].ref);
    }
    next.insert(next.end(), disjoint.begin(), disjoint.end());
    for (std::size_t j = first_with_nbrs; j < next.size(); ++j) {
      std::uint64_t* sw = arena.data(next[j]);
      for (std::size_t k = 0; k < words; ++k) sw[k] |= nw[k];
    }
    if (next.size() > max_terms) return truncate_fold(Truncation::kTermLimit);
    sop.swap(next);
    folded[x] = nbrs;
    nbrs.for_each([&](std::size_t n) { folded[n].set(x); });
  }

  if (fold_stats) fold_stats->num_terms = sop.size();
  fill_fold_stats();
  std::vector<Bitset> result;
  result.reserve(sop.size());
  for (TermRef r : sop) result.push_back(arena.to_bitset(r));
  return result;
}

PrimeGenResult generate_prime_dichotomies(const std::vector<Dichotomy>& ds,
                                          const PrimeGenOptions& opts,
                                          const ExecContext& ctx) {
  PrimeGenResult result;
  if (ds.empty()) return result;
  StageScope stage(ctx, "prime_generation");
  const std::size_t m = ds.size();

  // Pairwise incompatibility matrix. Each task fills only the upper
  // triangle of its own row, so the fan-out is race-free and the mirrored
  // result is independent of the thread count.
  std::vector<Bitset> incompat(m, Bitset(m));
  {
    TRACE_SCOPE(stage.ctx(), "incompat_matrix");
    parallel_for(m, m >= 128 ? ctx.num_threads : 1, [&](std::size_t i) {
      for (std::size_t j = i + 1; j < m; ++j)
        if (!ds[i].compatible(ds[j])) incompat[i].set(j);
    });
    for (std::size_t i = 0; i < m; ++i)
      incompat[i].for_each([&](std::size_t j) {
        if (j > i) incompat[j].set(i);
      });
  }

  bool truncated = false;
  Truncation reason = Truncation::kNone;
  const std::uint64_t work_before = ctx.budget ? ctx.budget->work_used() : 0;
  std::vector<Bitset> sop =
      two_cnf_to_minimal_sop(incompat, opts.max_terms, &truncated,
                             kPrimeMaxWork, stage.ctx(), &reason,
                             &result.fold);
  if (ctx.budget) stage.add_work(ctx.budget->work_used() - work_before);
  // Fold counters are deterministic: the fold is a sequential stage, so the
  // values are thread-count invariant and safe for the fingerprint.
  metric_add(ctx, "primes.folds", result.fold.folds);
  metric_add(ctx, "primes.fold_work", result.fold.work);
  metric_add(ctx, "primes.arena_allocs", result.fold.arena_allocs);
  metric_add(ctx, "primes.arena_reuses", result.fold.arena_reuses);
  metric_add(ctx, "primes.sop_terms", result.fold.num_terms);
  metric_max(ctx, "primes.peak_arena_bytes", result.fold.peak_arena_bytes);
  if (truncated) {
    result.truncated = true;
    result.truncation = reason;
    stage.set_truncation(reason);
    return result;
  }
  result.num_terms = sop.size();
  stage.add_items(sop.size());

  // Each SOP term is a minimal deletion set; the variables missing from it
  // form a maximal compatible whose union is a prime encoding-dichotomy.
  result.primes.reserve(sop.size());
  for (const Bitset& term : sop) {
    Dichotomy prime(ds[0].universe());
    for (std::size_t i = 0; i < m; ++i) {
      if (term.test(i)) continue;
      prime.left |= ds[i].left;
      prime.right |= ds[i].right;
    }
    result.primes.push_back(std::move(prime));
  }
  dedupe_dichotomies(result.primes);
  return result;
}

}  // namespace encodesat
