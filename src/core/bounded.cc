#include "core/bounded.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/dichotomy.h"
#include "core/verify.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace encodesat {

int minimum_code_length(std::uint32_t n) {
  if (n <= 1) return 1;
  int bits = 0;
  std::uint32_t cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++bits;
  }
  return bits;
}

namespace {

// ---------------------------------------------------------------------------
// Restricted cost evaluation
// ---------------------------------------------------------------------------

// Builds the constraint set restricted to subset P (paper, Section 7.1
// "Selection of best restricted dichotomies": the global constraints are
// restricted to the subset's symbols). Faces keep their members and
// don't-cares intersected with P; faces with fewer than two members left
// impose nothing beyond uniqueness and are dropped.
ConstraintSet restrict_constraints(const ConstraintSet& cs,
                                   const std::vector<std::uint32_t>& subset) {
  std::vector<std::uint32_t> to_local(cs.num_symbols(),
                                      std::numeric_limits<std::uint32_t>::max());
  ConstraintSet out;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    to_local[subset[i]] = static_cast<std::uint32_t>(i);
    out.symbols().intern(cs.symbols().name(subset[i]));
  }
  for (const FaceConstraint& f : cs.faces()) {
    std::vector<std::uint32_t> members, dontcares;
    for (auto m : f.members)
      if (to_local[m] != std::numeric_limits<std::uint32_t>::max())
        members.push_back(to_local[m]);
    for (auto d : f.dontcares)
      if (to_local[d] != std::numeric_limits<std::uint32_t>::max())
        dontcares.push_back(to_local[d]);
    if (members.size() >= 2) out.add_face_ids(std::move(members), std::move(dontcares));
  }
  return out;
}

// A selection of dichotomy columns for subset P, evaluated as codes of the
// restricted problem. Returns nullopt-like flag via `unique`: false when
// two subset symbols collide.
Encoding selection_codes(const std::vector<std::uint32_t>& subset,
                         const std::vector<Dichotomy>& selection,
                         bool* unique) {
  Encoding enc;
  enc.bits = static_cast<int>(selection.size());
  enc.codes.assign(subset.size(), 0);
  for (std::size_t j = 0; j < selection.size(); ++j)
    for (std::size_t i = 0; i < subset.size(); ++i)
      if (selection[j].in_right(subset[i]))
        enc.codes[i] |= std::uint64_t{1} << j;
  if (unique) {
    std::vector<std::uint64_t> sorted = enc.codes;
    std::sort(sorted.begin(), sorted.end());
    *unique =
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  }
  return enc;
}

struct Evaluator {
  const ConstraintSet& cs;
  const BoundedEncodeOptions& opts;
  ExecContext ctx;
  FaceCostMemo& memo;
  int evals = 0;

  // Cost of `selection` for `subset` under the restricted constraints
  // `restricted` (pre-computed by the caller). Non-unique codes are worse
  // than any cost.
  long score(const std::vector<std::uint32_t>& subset,
             const ConstraintSet& restricted,
             const std::vector<Dichotomy>& selection) {
    ++evals;
    ctx.charge(1);
    if ((evals & 63) == 0) ctx.poll();
    bool unique = false;
    const Encoding enc = selection_codes(subset, selection, &unique);
    if (!unique) return std::numeric_limits<long>::max();
    if (opts.cost == CostKind::kViolatedFaces)
      return static_cast<long>(restricted.faces().size()) -
             count_satisfied_faces(enc, restricted);
    long total = 0;
    for (const FaceConstraint& f : restricted.faces()) {
      const FaceCost fc = memo.cost(enc, restricted, f);
      total += opts.cost == CostKind::kCubes ? fc.cubes : fc.literals;
    }
    return total;
  }
};

// ---------------------------------------------------------------------------
// Splitting (Kernighan-Lin style local search)
// ---------------------------------------------------------------------------

// Cut cost of a bipartition: the number of face constraints (restricted to
// the subset) whose members span both sides — exactly the constraints the
// partition dichotomy itself violates.
int partition_cut(const ConstraintSet& cs,
                  const std::vector<std::uint32_t>& subset,
                  const std::vector<bool>& side) {
  std::vector<int> side_of(cs.num_symbols(), -1);
  for (std::size_t i = 0; i < subset.size(); ++i)
    side_of[subset[i]] = side[i] ? 1 : 0;
  int cut = 0;
  for (const FaceConstraint& f : cs.faces()) {
    bool s0 = false, s1 = false;
    int present = 0;
    for (auto m : f.members) {
      if (side_of[m] < 0) continue;
      ++present;
      (side_of[m] == 1 ? s1 : s0) = true;
    }
    if (present >= 2 && s0 && s1) ++cut;
  }
  return cut;
}

// Passes of the partition-improvement loop per start.
constexpr int kKlPasses = 8;
// Seed of the initial partitions; each start mixes in its subset's salt.
constexpr std::uint64_t kSplitSeed = 1;

// Splits `subset` into two non-empty parts, each of size <= part_cap,
// minimizing the cut by steepest single-move descent from a seeded split.
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
split_subset(const ConstraintSet& cs, const std::vector<std::uint32_t>& subset,
             std::size_t part_cap, std::uint64_t salt) {
  const std::size_t k = subset.size();
  assert(k >= 2);

  // Multi-start local search: each start seeds a balanced random split
  // honoring the cap (legal side sizes are [max(1, k - cap), min(cap,
  // k - 1)]) and descends by single-symbol moves.
  std::vector<bool> best_side(k, false);
  int best_overall = -1;
  const int starts = 3;
  for (int start = 0; start < starts; ++start) {
    Rng rng(kSplitSeed * 0x9e3779b97f4a7c15ull + salt * 131 +
            static_cast<std::uint64_t>(start));
    std::vector<bool> side(k, false);
    {
      std::vector<std::size_t> order(k);
      for (std::size_t i = 0; i < k; ++i) order[i] = i;
      for (std::size_t i = k; i > 1; --i)
        std::swap(order[i - 1], order[rng.next_below(i)]);
      const std::size_t lo = k > part_cap ? k - part_cap : 1;
      const std::size_t hi = std::min(part_cap, k - 1);
      const std::size_t ones = std::clamp(k / 2, lo, hi);
      for (std::size_t i = 0; i < ones; ++i) side[order[i]] = true;
    }

    auto count_side = [&](bool v) {
      std::size_t c = 0;
      for (bool s : side)
        if (s == v) ++c;
      return c;
    };

    int best_cut = partition_cut(cs, subset, side);
    for (int pass = 0; pass < kKlPasses; ++pass) {
      bool improved = false;
      for (std::size_t i = 0; i < k; ++i) {
        // Try moving symbol i to the other side if both sides stay legal.
        const std::size_t from = count_side(side[i]);
        const std::size_t to = k - from;
        if (from <= 1 || to + 1 > part_cap) continue;
        side[i] = !side[i];
        const int cut = partition_cut(cs, subset, side);
        if (cut < best_cut) {
          best_cut = cut;
          improved = true;
        } else {
          side[i] = !side[i];
        }
      }
      if (!improved) break;
    }
    if (best_overall < 0 || best_cut < best_overall) {
      best_overall = best_cut;
      best_side = side;
    }
  }

  std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> parts;
  for (std::size_t i = 0; i < k; ++i)
    (best_side[i] ? parts.second : parts.first).push_back(subset[i]);
  return parts;
}

// ---------------------------------------------------------------------------
// Recursive split / merge / select
// ---------------------------------------------------------------------------

// Enumerates combinations of size c from [0, m) invoking fn; stops early if
// fn returns false.
template <typename Fn>
void for_each_combination(std::size_t m, std::size_t c, Fn&& fn) {
  if (c > m) return;
  std::vector<std::size_t> idx(c);
  for (std::size_t i = 0; i < c; ++i) idx[i] = i;
  while (true) {
    if (!fn(idx)) return;
    // Advance.
    std::size_t i = c;
    while (i > 0) {
      --i;
      if (idx[i] + (c - i) < m) {
        ++idx[i];
        for (std::size_t j = i + 1; j < c; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (c == 0) return;
  }
}

std::uint64_t combinations_capped(std::size_t m, std::size_t c,
                                  std::uint64_t cap) {
  if (c > m) return 0;
  std::uint64_t r = 1;
  for (std::size_t i = 0; i < c; ++i) {
    r = r * (m - i) / (i + 1);
    if (r > cap) return cap + 1;
  }
  return r;
}

struct RecursiveEncoder {
  const ConstraintSet& cs;
  const BoundedEncodeOptions& opts;
  ExecContext ctx;
  Evaluator eval;

  RecursiveEncoder(const ConstraintSet& c, const BoundedEncodeOptions& o,
                   const ExecContext& x, FaceCostMemo& memo)
      : cs(c), opts(o), ctx(x), eval{c, o, x, memo} {}

  // Returns up to `length` restricted dichotomies (over the full universe)
  // giving the symbols of `subset` distinct codes and minimizing the cost.
  std::vector<Dichotomy> encode_subset(const std::vector<std::uint32_t>& subset,
                                       int length, std::uint64_t salt) {
    const std::size_t n = cs.num_symbols();
    if (subset.size() == 1) {
      Dichotomy d(n);
      d.left.set(subset[0]);
      return {d};
    }
    if (subset.size() == 2) {
      Dichotomy d(n);
      d.left.set(subset[0]);
      d.right.set(subset[1]);
      return {d};
    }
    assert(length >= 1);
    const std::size_t part_cap = length >= 63
                                     ? std::numeric_limits<std::size_t>::max()
                                     : (std::size_t{1} << (length - 1));

    auto [p1, p2] = split_subset(cs, subset, part_cap, salt);
    std::vector<Dichotomy> d1 = encode_subset(p1, length - 1, salt * 2 + 1);
    std::vector<Dichotomy> d2 = encode_subset(p2, length - 1, salt * 2 + 2);

    // Merge: the partition dichotomy plus the cross product of children in
    // both orientations (Section 7.1 "Merging").
    std::vector<Dichotomy> candidates;
    {
      Dichotomy dp(n);
      for (auto s : p1) dp.left.set(s);
      for (auto s : p2) dp.right.set(s);
      candidates.push_back(std::move(dp));
    }
    for (const Dichotomy& a : d1)
      for (const Dichotomy& b : d2) {
        candidates.push_back(a.union_with(b));
        candidates.push_back(a.union_with(b.flipped()));
      }
    dedupe_dichotomies(candidates);

    return select_best(subset, candidates, d1, d2,
                       static_cast<std::size_t>(length));
  }

  // Selection: pick `want` dichotomies from candidates giving unique codes
  // and minimal restricted cost. Exhaustive when small; otherwise start
  // from the structurally safe selection (partition dichotomy + pairwise
  // merged children) and hill-climb single swaps within the eval budget.
  std::vector<Dichotomy> select_best(const std::vector<std::uint32_t>& subset,
                                     const std::vector<Dichotomy>& candidates,
                                     const std::vector<Dichotomy>& d1,
                                     const std::vector<Dichotomy>& d2,
                                     std::size_t want) {
    const std::size_t n = cs.num_symbols();
    want = std::min(want, candidates.size());
    const ConstraintSet restricted = restrict_constraints(cs, subset);

    // Structurally safe fallback: partition dichotomy + the i-th dichotomy
    // of each child merged together (keeps every child separation).
    std::vector<Dichotomy> fallback;
    fallback.push_back(candidates[0]);  // the partition dichotomy
    const std::size_t pairs = std::max(d1.size(), d2.size());
    for (std::size_t i = 0; i < pairs && fallback.size() < want; ++i) {
      Dichotomy m(n);
      if (i < d1.size()) m = m.union_with(d1[i]);
      if (i < d2.size()) m = m.union_with(d2[i]);
      fallback.push_back(std::move(m));
    }
    {
      bool unique = false;
      selection_codes(subset, fallback, &unique);
      assert(unique);
      (void)unique;
    }

    const int budget = std::max(opts.max_selection_evals, 8);
    std::vector<Dichotomy> best = fallback;
    // Shared budget expired: the fallback is structurally safe, stop
    // optimizing here instead of spending more cost evaluations.
    if (ctx.exhausted()) return best;
    long best_score = eval.score(subset, restricted, best);

    if (combinations_capped(candidates.size(), want,
                            static_cast<std::uint64_t>(budget)) <=
        static_cast<std::uint64_t>(budget)) {
      for_each_combination(
          candidates.size(), want, [&](const std::vector<std::size_t>& idx) {
            if (ctx.exhausted()) return false;
            std::vector<Dichotomy> sel;
            sel.reserve(idx.size());
            for (auto i : idx) sel.push_back(candidates[i]);
            const long s = eval.score(subset, restricted, sel);
            if (s < best_score) {
              best_score = s;
              best = std::move(sel);
            }
            return true;
          });
      return best;
    }

    // Hill climbing: replace one selected dichotomy by one unselected.
    int used = 1;  // the fallback evaluation
    bool improved = true;
    while (improved && used < budget && !ctx.exhausted()) {
      improved = false;
      for (std::size_t pos = 0; pos < best.size() && used < budget; ++pos) {
        for (std::size_t c = 0;
             c < candidates.size() && used < budget && !ctx.exhausted(); ++c) {
          std::vector<Dichotomy> trial = best;
          trial[pos] = candidates[c];
          ++used;
          const long s = eval.score(subset, restricted, trial);
          if (s < best_score) {
            best_score = s;
            best = std::move(trial);
            improved = true;
            break;
          }
        }
      }
    }
    return best;
  }
};

// ---------------------------------------------------------------------------
// Final polish: pairwise code swaps with incremental cost re-evaluation
// ---------------------------------------------------------------------------

// Budget of per-face cost evaluations the polish may spend.
constexpr int kPolishEvalBudget = 60000;

// Swapping the codes of two symbols leaves a face's cost untouched unless
// the pair sits asymmetrically in it (one in members/don't-cares, the other
// not, or one member vs one don't-care): the member, don't-care and
// used-code sets — the only inputs of the Fig. 9 cost — are otherwise
// permuted within themselves.
void polish_by_swaps(Encoding& enc, const ConstraintSet& cs,
                     const BoundedEncodeOptions& opts, const ExecContext& ctx,
                     FaceCostMemo& memo) {
  const std::size_t nf = cs.faces().size();
  if (nf == 0 || opts.polish_passes <= 0 || ctx.exhausted()) return;
  const std::uint32_t n = cs.num_symbols();

  // Membership category of each symbol in each face.
  std::vector<std::vector<std::uint8_t>> cat(
      nf, std::vector<std::uint8_t>(n, 0));
  for (std::size_t i = 0; i < nf; ++i) {
    for (auto m : cs.faces()[i].members) cat[i][m] = 2;
    for (auto d : cs.faces()[i].dontcares) cat[i][d] = 1;
  }

  int evals = 0;
  auto face_value = [&](std::size_t i) -> long {
    ++evals;
    ctx.charge(1);
    if ((evals & 63) == 0) ctx.poll();
    const FaceConstraint& f = cs.faces()[i];
    if (opts.cost == CostKind::kViolatedFaces)
      return face_satisfied(enc, cs, f) ? 0 : 1;
    const FaceCost fc = memo.cost(enc, cs, f);
    return opts.cost == CostKind::kCubes ? fc.cubes : fc.literals;
  };

  std::vector<long> face_cost(nf);
  for (std::size_t i = 0; i < nf; ++i) face_cost[i] = face_value(i);

  // Free codes for move-to-unused-code moves (changes the DC set of the
  // cube/literal costs, so every face is re-evaluated on acceptance).
  // Only enumerated for code spaces small enough to materialize; for long
  // codes the polish falls back to swaps only.
  std::vector<std::uint64_t> free_codes;
  if (enc.bits <= 20) {
    const std::uint64_t space = std::uint64_t{1} << enc.bits;
    std::vector<bool> used(space, false);
    for (auto c : enc.codes) used[c] = true;
    for (std::uint64_t c = 0; c < space; ++c)
      if (!used[c]) free_codes.push_back(c);
  }
  auto refresh_all = [&]() {
    for (std::size_t i = 0; i < nf; ++i) face_cost[i] = face_value(i);
  };

  long total = 0;
  for (long c : face_cost) total += c;

  for (int pass = 0; pass < opts.polish_passes; ++pass) {
    bool improved = false;
    for (std::uint32_t a = 0; a < n; ++a) {
      // Pairwise swaps.
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (evals >= kPolishEvalBudget || ctx.exhausted()) return;
        std::vector<std::size_t> affected;
        for (std::size_t i = 0; i < nf; ++i)
          if (cat[i][a] != cat[i][b]) affected.push_back(i);
        if (affected.empty()) continue;
        long before = 0;
        for (std::size_t i : affected) before += face_cost[i];
        std::swap(enc.codes[a], enc.codes[b]);
        long after = 0;
        std::vector<long> updated(affected.size());
        for (std::size_t k = 0; k < affected.size(); ++k) {
          updated[k] = face_value(affected[k]);
          after += updated[k];
        }
        if (after < before) {
          for (std::size_t k = 0; k < affected.size(); ++k)
            face_cost[affected[k]] = updated[k];
          total += after - before;
          improved = true;
        } else {
          std::swap(enc.codes[a], enc.codes[b]);
        }
      }
      // Moves to an unused code. These change the unused-code DC set, so
      // every face is re-evaluated — attempted sparingly (a handful of
      // target codes per symbol, and only while the budget allows a full
      // re-evaluation).
      const std::size_t free_tries = std::min<std::size_t>(free_codes.size(), 8);
      for (std::size_t fi = 0; fi < free_tries; ++fi) {
        if (evals + static_cast<int>(nf) >= kPolishEvalBudget ||
            ctx.exhausted())
          break;
        const std::uint64_t old_code = enc.codes[a];
        enc.codes[a] = free_codes[fi];
        long after = 0;
        for (std::size_t i = 0; i < nf; ++i) {
          after += face_value(i);
          if (after >= total) break;  // cannot improve any more
        }
        if (after < total) {
          free_codes[fi] = old_code;
          refresh_all();
          total = 0;
          for (long c : face_cost) total += c;
          improved = true;
        } else {
          enc.codes[a] = old_code;
        }
      }
    }
    if (!improved) break;
  }
}

}  // namespace

BoundedEncodeResult bounded_encode(const ConstraintSet& cs, int code_length,
                                   const BoundedEncodeOptions& opts,
                                   const ExecContext& ctx) {
  StageScope stage(ctx, "bounded_encode");
  const std::uint32_t n = cs.num_symbols();
  if (n == 0) throw std::invalid_argument("no symbols to encode");
  if (code_length < minimum_code_length(n))
    throw std::invalid_argument("code length " + std::to_string(code_length) +
                                " cannot give " + std::to_string(n) +
                                " symbols distinct codes");
  if (code_length > 63)
    throw std::invalid_argument("code lengths above 63 bits are unsupported");

  std::vector<std::uint32_t> all(n);
  for (std::uint32_t i = 0; i < n; ++i) all[i] = i;

  // One memo serves the selection and the polish, and dies with the call.
  // Their costs use single-pass ESPRESSO; only the returned encoding's cost
  // is evaluated in full.
  FaceCostMemo memo;
  RecursiveEncoder enc(cs, opts, stage.ctx(), memo);
  std::vector<Dichotomy> columns;
  {
    TRACE_SCOPE(stage.ctx(), "bounded_recurse");
    columns = enc.encode_subset(all, code_length, 1);
  }

  // Pad with empty columns if the recursion returned fewer than requested
  // (possible for tiny subsets); codes stay unique.
  while (static_cast<int>(columns.size()) < code_length)
    columns.emplace_back(n);
  columns.resize(static_cast<std::size_t>(code_length), Dichotomy(n));

  BoundedEncodeResult res;
  // Left block -> 0; symbols unplaced by a column get 0 as well here (the
  // heuristic's columns place every subset symbol by construction).
  res.encoding.bits = code_length;
  res.encoding.codes.assign(n, 0);
  for (std::size_t j = 0; j < columns.size(); ++j)
    for (std::uint32_t s = 0; s < n; ++s)
      if (columns[j].in_right(s))
        res.encoding.codes[s] |= std::uint64_t{1} << j;

  {
    TRACE_SCOPE(stage.ctx(), "bounded_polish");
    polish_by_swaps(res.encoding, cs, opts, stage.ctx(), memo);
  }

  res.cost = evaluate_encoding_cost(res.encoding, cs, /*fast=*/false);
  metric_add(stage.ctx(), "bounded.evals",
             static_cast<std::uint64_t>(enc.eval.evals));
  stage.ctx().poll();
  if (stage.ctx().exhausted()) {
    res.truncation = stage.ctx().reason();
    stage.set_truncation(res.truncation);
  }
  stage.add_items(static_cast<std::uint64_t>(enc.eval.evals));
  return res;
}

}  // namespace encodesat
