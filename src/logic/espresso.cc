#include "logic/espresso.h"

#include <algorithm>
#include <utility>

#include "logic/urp.h"

namespace encodesat {

namespace {

using Cost = std::pair<std::size_t, int>;  // (#cubes, #input literals)

/// Maximum REDUCE/EXPAND/IRREDUNDANT round-trips after the first pass; the
/// loop also stops at the first round that does not lower the cost.
constexpr int kMaxIterations = 8;

Cost cover_cost(const Cover& f) { return {f.size(), f.input_literals()}; }

}  // namespace

void expand_against_offset(Cover& f, const Cover& off) {
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
      bool hits_off = false;
      for (const Cube& r : off) {
        if (cubes_intersect(dom, c, r)) {
          hits_off = true;
          break;
        }
      }
      if (hits_off) c.bits.reset(b);
    }
    for (std::size_t j = 0; j < f.size(); ++j)
      if (j != i && !dead[j] && cube_contains(c, f[j])) dead[j] = true;
  }
  Cover kept(dom);
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!dead[i]) kept.add(f[i]);
  f = std::move(kept);
}

void make_irredundant(Cover& f, const Cover& dc) {
  // Try to delete small cubes first; they are the most likely to be covered
  // by the remainder.
  std::stable_sort(f.cubes().begin(), f.cubes().end(),
                   [](const Cube& a, const Cube& b) {
                     return a.bits.count() < b.bits.count();
                   });
  for (std::size_t i = 0; i < f.size();) {
    Cover rest(f.domain());
    for (std::size_t j = 0; j < f.size(); ++j)
      if (j != i) rest.add(f[j]);
    rest.add_all(dc);
    if (cover_contains_cube(rest, f[i]))
      f.remove(i);
    else
      ++i;
  }
}

void reduce_cover(Cover& f, const Cover& dc) {
  const Domain& dom = f.domain();
  // Reduce large cubes first (the standard ESPRESSO heuristic): shrinking a
  // big cube frees the most room for subsequent expansions.
  std::stable_sort(f.cubes().begin(), f.cubes().end(),
                   [](const Cube& a, const Cube& b) {
                     return a.bits.count() > b.bits.count();
                   });
  for (std::size_t i = 0; i < f.size();) {
    Cover rest(dom);
    for (std::size_t j = 0; j < f.size(); ++j)
      if (j != i) rest.add(f[j]);
    rest.add_all(dc);
    const Cover comp = complement(cover_cofactor(rest, f[i]));
    if (comp.empty()) {
      // The rest covers this cube entirely — it is redundant.
      f.remove(i);
      continue;
    }
    Cube sc(dom);
    for (const Cube& c : comp) sc = cube_supercube(sc, c);
    f[i].bits &= sc.bits;
    ++i;
  }
}

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

  Cover on_dc = f;
  on_dc.add_all(dc);
  const Cover off = complement(on_dc);

  expand_against_offset(f, off);
  make_irredundant(f, dc);

  if (!opts.single_pass) {
    Cost best = cover_cost(f);
    Cover best_cover = f;
    for (int it = 0; it < kMaxIterations; ++it) {
      if (stats) stats->iterations = it + 1;
      reduce_cover(f, dc);
      expand_against_offset(f, off);
      make_irredundant(f, dc);
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
  if (stats) stats->final_cubes = f.size();
  return f;
}

}  // namespace encodesat
