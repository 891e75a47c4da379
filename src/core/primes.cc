#include "core/primes.h"

#include <algorithm>
#include <numeric>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

// The working SOP of the fold: arena refs with cached popcounts and folded
// containment signatures in parallel arrays, so the containment scans read
// contiguous memory and only touch the full terms on signature survivors.
// The vectors are reused across folds; after the first few folds the loop
// performs no heap allocation at all.
struct TermList {
  std::vector<TermRef> refs;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> sigs;

  std::size_t size() const { return refs.size(); }
  void clear() {
    refs.clear();
    counts.clear();
    sigs.clear();
  }
  void push(TermRef r, std::uint32_t c, std::uint64_t s) {
    refs.push_back(r);
    counts.push_back(c);
    sigs.push_back(s);
  }
  void swap(TermList& o) {
    refs.swap(o.refs);
    counts.swap(o.counts);
    sigs.swap(o.sigs);
  }
};

// Keeps only the minimal terms (no kept term is a superset of another):
// absorption x + xy = x for a unate SOP, i.e. single-cube containment.
// Terms are sorted by (popcount, word-lex); adjacent duplicates are
// released, and the subset scan for a term only runs over kept terms of
// strictly smaller popcount (an equal-count absorber would equal the
// deduplicated term) that also pass the folded-signature test — most
// candidate pairs are rejected on the popcount bucket or the one-word
// signature without touching the full terms. Output is count-ascending.
void keep_minimal_terms(TermArena& arena, TermList& terms,
                        std::vector<std::uint32_t>& order, TermList& out,
                        std::uint64_t& sig_hits) {
  const std::size_t n = terms.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (terms.counts[a] != terms.counts[b])
                return terms.counts[a] < terms.counts[b];
              // One-word signature compare settles most ties; the full
              // word-lex order is only consulted on signature collisions,
              // so duplicates (equal count *and* signature) stay adjacent.
              if (terms.sigs[a] != terms.sigs[b])
                return terms.sigs[a] < terms.sigs[b];
              return arena.less(terms.refs[a], terms.refs[b]);
            });

  out.clear();
  std::size_t eq_start = 0;  // first kept index with the current popcount
  std::uint32_t run_count = ~0u;
  bool have_prev = false;
  TermRef prev = 0;
  for (std::uint32_t i : order) {
    const TermRef r = terms.refs[i];
    const std::uint32_t c = terms.counts[i];
    const std::uint64_t s = terms.sigs[i];
    // Duplicates are adjacent in the sort order.
    if (have_prev && c == run_count && arena.equal(prev, r)) {
      arena.release(r);
      continue;
    }
    if (c != run_count) {
      eq_start = out.size();
      run_count = c;
    }
    have_prev = true;
    prev = r;
    bool absorbed = false;
    for (std::size_t j = 0; j < eq_start; ++j) {
      if ((out.sigs[j] & ~s) != 0) {
        ++sig_hits;
        continue;
      }
      if (arena.is_subset(out.refs[j], r)) {
        absorbed = true;
        break;
      }
    }
    if (absorbed)
      arena.release(r);
    else
      out.push(r, c, s);
  }
  terms.swap(out);
}

}  // namespace

std::vector<Bitset> two_cnf_to_minimal_sop(const std::vector<Bitset>& incompat,
                                           std::size_t max_terms,
                                           bool* truncated,
                                           std::uint64_t max_work,
                                           const ExecContext& ctx,
                                           Truncation* reason,
                                           SopFoldStats* fold_stats) {
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
  // x_expr = x + Π neighbours(x), so each term either gains {x} or gains
  // the neighbour set; single-cube containment keeps the result minimal.
  //
  // The working terms live in a flat TermArena (util/term_arena.h): one
  // contiguous buffer, O(1) free-list reuse, popcounts and folded
  // signatures cached in parallel arrays. The Bitset vectors at this
  // function's boundary are conversion shims only.
  TermArena arena(m, /*reserve_terms=*/256);
  TermList sop, with_nbrs, scratch, d_half;
  std::vector<std::uint32_t> order, d_idx;
  sop.push(arena.alloc(), 0, 0);  // cs of the empty expression: constant 1

  std::uint64_t work = 0;
  std::uint64_t sig_hits = 0;
  const std::uint64_t words = (m + 63) / 64;
  auto fill_fold_stats = [&] {
    if (!fold_stats) return;
    fold_stats->peak_arena_bytes = arena.peak_bytes();
    fold_stats->arena_allocs = arena.total_allocs();
    fold_stats->arena_reuses = arena.total_reuses();
    fold_stats->prune_sig_hits = sig_hits;
  };
  auto truncate_fold = [&](Truncation why) {
    fill_fold_stats();
    return truncate(why);
  };
  for (auto it = splits.rbegin(); it != splits.rend(); ++it) {
    TRACE_SCOPE(ctx, "sop_fold");
    const std::size_t x = it->first;
    // Work accounting (in bitset word operations, upper bound): the
    // absorption scans below cost at most |B|^2/2 + |A|*|B| pairwise subset
    // checks of `words` words each for this fold. The signature/popcount
    // pruning makes the *measured* cost much lower, but the charged units
    // keep the pre-arena scale so budget trip points stay comparable.
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
    // truncated return by one absorption scan.
    if (!ctx.charge(fold_work)) return truncate_fold(ctx.reason());
    if (!ctx.poll()) return truncate_fold(ctx.reason());
    // Bail out before paying the absorption scan on a hopeless blow-up:
    // absorption at most halves the set, so 2x over budget cannot recover.
    if (sop.size() > max_terms) return truncate_fold(Truncation::kTermLimit);

    const TermRef nbr = arena.from_bitset(it->second);
    const std::uint64_t nbr_sig = arena.signature(nbr);
    const std::uint32_t nbr_count =
        static_cast<std::uint32_t>(arena.count(nbr));
    const std::uint64_t x_bit = std::uint64_t{1} << (x & 63);

    // next = {t ∪ {x}} ∪ {t ∪ N}. Structure exploited for absorption:
    // terms never contain x before this fold (x was peeled first), so the
    // {t ∪ {x}} half inherits the SOP's pairwise incomparability verbatim
    // and no term of it can absorb a {t ∪ N} term (those lack x). Only the
    // {t ∪ N} half needs internal minimization — and since *every* term of
    // that half contains N, t1 ∪ N ⊆ t2 ∪ N iff t1\N ⊆ t2\N: minimize the
    // stripped terms {t \ N} instead and OR N back into the survivors.
    //
    // Stripping changes only terms that intersect N. Because the old SOP is
    // pairwise incomparable, an absorber among the stripped terms must have
    // *lost* elements (t1\N ⊆ t2\N with t1 ⊄ t2 forces t1 ∩ N ≠ ∅), so
    // N-disjoint terms never absorb anything and are never duplicates —
    // the quadratic minimization runs over the touched subset only, and
    // each N-disjoint term just needs one absorbed-by-kept-touched scan.
    with_nbrs.clear();
    d_idx.clear();
    for (std::size_t i = 0; i < sop.size(); ++i) {
      if ((sop.sigs[i] & nbr_sig) != 0 &&
          arena.intersects(sop.refs[i], nbr)) {
        const TermRef w = arena.alloc();
        arena.andnot_of(w, sop.refs[i], nbr);
        with_nbrs.push(w, static_cast<std::uint32_t>(arena.count(w)),
                       arena.signature(w));
      } else {
        d_idx.push_back(static_cast<std::uint32_t>(i));
      }
    }
    keep_minimal_terms(arena, with_nbrs, order, scratch, sig_hits);

    // Surviving N-disjoint terms join the {t ∪ N} half as clones (their
    // originals are still needed for the {t ∪ {x}} half below). An absorber
    // with equal count would equal the term, which stripping rules out, so
    // the ≤-count scan bound is exact.
    d_half.clear();
    for (std::uint32_t i : d_idx) {
      const TermRef t = sop.refs[i];
      const std::uint32_t c = sop.counts[i];
      const std::uint64_t s = sop.sigs[i];
      bool absorbed = false;
      for (std::size_t j = 0;
           j < with_nbrs.size() && with_nbrs.counts[j] <= c; ++j) {
        if ((with_nbrs.sigs[j] & ~s) != 0) {
          ++sig_hits;
          continue;
        }
        if (arena.is_subset(with_nbrs.refs[j], t)) {
          absorbed = true;
          break;
        }
      }
      if (!absorbed) d_half.push(arena.clone(t), c, s);
    }

    // The {t ∪ {x}} half, built by mutating the old SOP terms in place.
    // Since x is in no {t ∪ N} term, b ⊆ t ∪ {x} iff b ⊆ t; and every
    // b = sb ∪ N contains N, so b ⊆ t requires N ⊆ t — one signature test
    // plus one subset check gates the whole scan per term, and in the
    // common case (t misses some neighbour of x) nothing is scanned.
    // Under the gate, b ⊆ t iff sb ⊆ t with |sb| ≤ |t| - |N| (sb ∩ N = ∅),
    // so the count-ascending stripped list is scanned only up to that
    // bound (b == t, i.e. sb = t\N, absorbs too and sits at the bound).
    // d_half never absorbs here: its sb is itself an old SOP term, and
    // sb ⊆ t contradicts the old SOP's pairwise incomparability.
    scratch.clear();
    for (std::size_t i = 0; i < sop.size(); ++i) {
      const TermRef t = sop.refs[i];
      const std::uint32_t c = sop.counts[i];
      const std::uint64_t s = sop.sigs[i];
      bool absorbed = false;
      if ((nbr_sig & ~s) == 0 && arena.is_subset(nbr, t)) {
        const std::uint32_t limit = c - nbr_count;
        for (std::size_t j = 0;
             j < with_nbrs.size() && with_nbrs.counts[j] <= limit; ++j) {
          if ((with_nbrs.sigs[j] & ~s) != 0) {
            ++sig_hits;
            continue;
          }
          if (arena.is_subset(with_nbrs.refs[j], t)) {
            absorbed = true;
            break;
          }
        }
      }
      if (absorbed) {
        arena.release(t);
        continue;
      }
      arena.set(t, x);
      scratch.push(t, c + 1, s | x_bit);
    }
    // Reconstitute the {t ∪ N} half from the kept stripped terms.
    for (std::size_t j = 0; j < with_nbrs.size(); ++j) {
      const TermRef w = with_nbrs.refs[j];
      arena.or_into(w, nbr);
      scratch.push(w, with_nbrs.counts[j] + nbr_count,
                   with_nbrs.sigs[j] | nbr_sig);
    }
    for (std::size_t j = 0; j < d_half.size(); ++j) {
      const TermRef w = d_half.refs[j];
      arena.or_into(w, nbr);
      scratch.push(w, d_half.counts[j] + nbr_count,
                   d_half.sigs[j] | nbr_sig);
    }
    with_nbrs.clear();
    d_half.clear();
    arena.release(nbr);
    if (scratch.size() > max_terms) return truncate_fold(Truncation::kTermLimit);
    sop.swap(scratch);
  }

  if (fold_stats) fold_stats->num_terms = sop.size();
  fill_fold_stats();
  std::vector<Bitset> result;
  result.reserve(sop.size());
  for (TermRef r : sop.refs) result.push_back(arena.to_bitset(r));
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
  metric_add(ctx, "primes.prune_sig_hits", result.fold.prune_sig_hits);
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
