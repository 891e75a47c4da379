#include "logic/espresso.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "logic/urp.h"

namespace encodesat {

namespace {

using Cost = std::pair<std::size_t, int>;  // (#cubes, #input literals)

/// Maximum REDUCE/EXPAND/IRREDUNDANT round-trips after the first pass; the
/// loop also stops at the first round that does not lower the cost.
constexpr int kMaxIterations = 8;

Cost cover_cost(const Cover& f) { return {f.size(), f.input_literals()}; }

// EXPAND, IRREDUNDANT and REDUCE ask the OFF- and DC-sets three point-set
// questions, each through an oracle:
//   meets_off(c)  does cube c meet the OFF-set;
//   covered(f, i) do the cubes of f other than f[i], plus DC, cover f[i];
//   reduce(f, i)  shrink f[i] to the smallest cube holding the part of it
//                 that the other cubes plus DC leave uncovered, or return
//                 false, leaving f[i] as it is, when no part is left.
// Any exact answer gives the same cubes in the same order, so the domain
// alone picks the oracle.

// Any domain: the OFF-set is a cover, the URP complement of ON ∪ DC, and
// the other two questions are URP tautology and complement calls on the
// other cubes plus DC.
class UrpOracle {
 public:
  UrpOracle(const Cover& f, const Cover& dc) : dc_(dc) {
    Cover on_dc = f;
    on_dc.add_all(dc);
    off_ = complement(on_dc);
  }

  bool meets_off(const Cube& c) const {
    for (const Cube& r : off_)
      if (cubes_intersect(off_.domain(), c, r)) return true;
    return false;
  }

  bool covered(const Cover& f, std::size_t i) const {
    return cover_contains_cube(rest(f, i), f[i]);
  }

  bool reduce(Cover& f, std::size_t i) const {
    const Cover comp = complement(cover_cofactor(rest(f, i), f[i]));
    if (comp.empty()) return false;
    Cube sc(f.domain());
    for (const Cube& c : comp) sc = cube_supercube(sc, c);
    f[i].bits &= sc.bits;
    return true;
  }

 private:
  // The cubes of f other than f[i], plus DC.
  Cover rest(const Cover& f, std::size_t i) const {
    Cover r(f.domain());
    for (std::size_t j = 0; j < f.size(); ++j)
      if (j != i) r.add(f[j]);
    r.add_all(dc_);
    return r;
  }

  const Cover& dc_;
  Cover off_;
};

// At most kWordOracleMaxInputs binary inputs and one output: every point
// set is one word, whose bit m stands for the input minterm with input v
// equal to bit v of m. A cube's set is the AND over its inputs of the
// minterms its literal admits, or 0 if it does not assert the output; OFF
// is the complement of ON ∪ DC. Input v's values sit at positions 2v and
// 2v + 1 and the output at 2n, so a cube is its word 0.
class WordOracle {
 public:
  static bool fits(const Domain& dom) {
    if (dom.num_outputs() != 1 || dom.num_inputs() > kWordOracleMaxInputs)
      return false;
    for (int v = 0; v < dom.num_inputs(); ++v)
      if (dom.input_size(v) != 2) return false;
    return true;
  }

  // Reads every cube of f and dc, and throws std::invalid_argument, as the
  // cube kernels do, on one whose size is not the domain's.
  WordOracle(const Cover& f, const Cover& dc)
      : num_inputs_(f.domain().num_inputs()),
        // 2^n minterms; at n = 6 that is the whole word (1 << 64 is
        // undefined).
        all_(num_inputs_ == kWordOracleMaxInputs
                 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << (1 << num_inputs_)) - 1) {
    // The minterms whose input v is 1.
    constexpr std::uint64_t kOnes[kWordOracleMaxInputs] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    for (int v = 0; v < num_inputs_; ++v) {
      ones_[v] = kOnes[v] & all_;
      // Indexed by the literal's two bits: it admits no value, only 0,
      // only 1, or both.
      literal_[v] = {0, all_ & ~ones_[v], ones_[v], all_};
    }
    std::uint64_t on = 0;
    for (const Cube& c : f) on |= checked_minterms(f.domain(), c);
    for (const Cube& c : dc) dc_ |= checked_minterms(f.domain(), c);
    off_ = all_ & ~(on | dc_);
  }

  bool meets_off(const Cube& c) const { return (minterms(c) & off_) != 0; }

  bool covered(const Cover& f, std::size_t i) const {
    return uncovered(f, i) == 0;
  }

  // The supercube of the uncovered minterms admits value 0 (1) of input v
  // iff one of them has input v at 0 (1). That is the cube UrpOracle
  // makes: the cubes of its complement are non-empty, so within f[i] each
  // input part of their supercube is the projection of the uncovered set.
  bool reduce(Cover& f, std::size_t i) const {
    const std::uint64_t left = uncovered(f, i);
    if (left == 0) return false;
    std::uint64_t sc = std::uint64_t{1} << (2 * num_inputs_);
    for (int v = 0; v < num_inputs_; ++v) {
      if ((left & ~ones_[v]) != 0) sc |= std::uint64_t{1} << (2 * v);
      if ((left & ones_[v]) != 0) sc |= std::uint64_t{2} << (2 * v);
    }
    f[i].bits.words()[0] &= sc;
    return true;
  }

 private:
  // The minterms of cube c, read from its word 0 without a size check: the
  // passes hand it only cubes of f, which the constructor has checked and
  // which they change only by setting and clearing positions.
  std::uint64_t minterms(const Cube& c) const {
    const std::uint64_t w = c.bits.words()[0];
    if (((w >> (2 * num_inputs_)) & 1) == 0) return 0;
    std::uint64_t s = all_;
    for (int v = 0; v < num_inputs_; ++v)
      s &= literal_[v][(w >> (2 * v)) & 3];
    return s;
  }

  // cube_is_empty throws std::invalid_argument on a cube whose size is not
  // the domain's, before word 0 is read.
  std::uint64_t checked_minterms(const Domain& dom, const Cube& c) const {
    return cube_is_empty(dom, c) ? 0 : minterms(c);
  }

  // The minterms of f[i] that neither the other cubes of f nor DC cover.
  std::uint64_t uncovered(const Cover& f, std::size_t i) const {
    std::uint64_t rest = dc_;
    for (std::size_t j = 0; j < f.size(); ++j)
      if (j != i) rest |= minterms(f[j]);
    return minterms(f[i]) & ~rest;
  }

  int num_inputs_;
  std::uint64_t all_;
  std::uint64_t ones_[kWordOracleMaxInputs] = {};
  std::array<std::uint64_t, 4> literal_[kWordOracleMaxInputs] = {};
  std::uint64_t dc_ = 0;
  std::uint64_t off_ = 0;
};

// EXPAND: makes each cube prime against the OFF-set, removing cubes that
// become covered by an expanded one.
template <class Oracle>
void expand(Cover& f, const Oracle& oracle) {
  const Domain& dom = f.domain();
  // Expand small cubes first: they have the most raising opportunities and
  // the cubes they grow to cover are deleted, shortening later work.
  std::stable_sort(f.cubes().begin(), f.cubes().end(),
                   [](const Cube& a, const Cube& b) {
                     return a.bits.count() < b.bits.count();
                   });
  // Raise order heuristic: positions admitted by many other ON-set cubes
  // first, so expansion grows toward (and swallows) the rest of the cover.
  std::vector<std::size_t> popularity(static_cast<std::size_t>(dom.total_parts()),
                                      0);
  for (const Cube& c : f)
    c.bits.for_each([&](std::size_t b) { ++popularity[b]; });
  std::vector<std::size_t> order(popularity.size());
  for (std::size_t b = 0; b < order.size(); ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return popularity[a] > popularity[b];
                   });

  std::vector<bool> dead(f.size(), false);
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (dead[i]) continue;
    Cube& c = f[i];
    // Raising a bit only grows the cube, so one pass over the positions
    // suffices: a raise blocked now stays blocked.
    for (std::size_t b : order) {
      if (c.bits.test(b)) continue;
      c.bits.set(b);
      if (oracle.meets_off(c)) c.bits.reset(b);
    }
    for (std::size_t j = 0; j < f.size(); ++j)
      if (j != i && !dead[j] && cube_contains(c, f[j])) dead[j] = true;
  }
  Cover kept(dom);
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!dead[i]) kept.add(f[i]);
  f = std::move(kept);
}

// IRREDUNDANT: removes cubes covered by the rest of the cover plus DC.
template <class Oracle>
void irredundant(Cover& f, const Oracle& oracle) {
  // Try to delete small cubes first; they are the most likely to be covered
  // by the remainder.
  std::stable_sort(f.cubes().begin(), f.cubes().end(),
                   [](const Cube& a, const Cube& b) {
                     return a.bits.count() < b.bits.count();
                   });
  for (std::size_t i = 0; i < f.size();) {
    if (oracle.covered(f, i))
      f.remove(i);
    else
      ++i;
  }
}

// REDUCE: shrinks each cube to the smallest cube still covering the part of
// it not covered by the rest of the cover plus DC; a cube with no such part
// is redundant and removed.
template <class Oracle>
void reduce(Cover& f, const Oracle& oracle) {
  // Reduce large cubes first (the standard ESPRESSO heuristic): shrinking a
  // big cube frees the most room for subsequent expansions.
  std::stable_sort(f.cubes().begin(), f.cubes().end(),
                   [](const Cube& a, const Cube& b) {
                     return a.bits.count() > b.bits.count();
                   });
  for (std::size_t i = 0; i < f.size();) {
    if (oracle.reduce(f, i))
      ++i;
    else
      f.remove(i);
  }
}

template <class Oracle>
void minimize(Cover& f, const Oracle& oracle, const EspressoOptions& opts,
              EspressoStats* stats) {
  expand(f, oracle);
  irredundant(f, oracle);
  if (opts.single_pass) return;
  Cost best = cover_cost(f);
  Cover best_cover = f;
  for (int it = 0; it < kMaxIterations; ++it) {
    if (stats) stats->iterations = it + 1;
    reduce(f, oracle);
    expand(f, oracle);
    irredundant(f, oracle);
    const Cost cost = cover_cost(f);
    if (cost < best) {
      best = cost;
      best_cover = f;
    } else {
      break;
    }
  }
  f = std::move(best_cover);
}

}  // namespace

Cover espresso(const Cover& on, const Cover& dc, const EspressoOptions& opts,
               EspressoStats* stats) {
  Cover f = on;
  f.make_scc_minimal();
  if (stats) {
    *stats = EspressoStats{};
    stats->initial_cubes = on.size();
  }
  if (f.empty()) {
    if (stats) stats->final_cubes = 0;
    return f;
  }

  if (WordOracle::fits(f.domain()))
    minimize(f, WordOracle(f, dc), opts, stats);
  else
    minimize(f, UrpOracle(f, dc), opts, stats);
  if (stats) stats->final_cubes = f.size();
  return f;
}

}  // namespace encodesat
