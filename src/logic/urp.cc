#include "logic/urp.h"

#include <cassert>
#include <vector>

namespace encodesat {

namespace {

// The literal cube for (part, value): full everywhere except the given part,
// which admits only `value`.
Cube literal_cube(const Domain& dom, int part, int value) {
  Cube c = full_cube(dom);
  const int off = dom.part_offset(part), len = dom.part_size(part);
  for (int i = 0; i < len; ++i)
    if (i != value) c.bits.reset(static_cast<std::size_t>(off + i));
  return c;
}

// Selects the "most binate" part: the part with the largest number of cubes
// having a non-full literal in it. Returns -1 if every cube is full in every
// part (i.e. all cubes are the universe).
int select_binate_part(const Cover& f) {
  const Domain& dom = f.domain();
  int best = -1, best_count = 0;
  for (int p = 0; p < dom.num_parts(); ++p) {
    int cnt = 0;
    for (const Cube& c : f)
      if (!cube_part_full(dom, c, p)) ++cnt;
    if (cnt > best_count) {
      best_count = cnt;
      best = p;
    }
  }
  return best;
}

// Quick necessary condition for tautology: every (part, value) position must
// be admitted by at least one cube. Returns false if some position is
// missing from all cubes.
bool all_columns_covered(const Cover& f) {
  const Domain& dom = f.domain();
  Bitset unionBits(static_cast<std::size_t>(dom.total_parts()));
  for (const Cube& c : f) unionBits |= c.bits;
  return unionBits.count() == static_cast<std::size_t>(dom.total_parts());
}

// Unate reduction for tautology: if some (part, value) position is admitted
// only by cubes that are full in that part, then the cofactor with respect
// to that value retains exactly the part-full cubes and is the binding
// subproblem; the cover is a tautology iff that subcover is. Applies the
// reduction to a fixpoint. May shrink f in place.
void unate_reduce(Cover& f) {
  const Domain& dom = f.domain();
  bool changed = true;
  while (changed && !f.empty()) {
    changed = false;
    for (int p = 0; p < dom.num_parts() && !changed; ++p) {
      const int off = dom.part_offset(p), len = dom.part_size(p);
      // Union of the part over cubes that are NOT full in this part.
      std::vector<bool> seen(static_cast<std::size_t>(len), false);
      bool any_nonfull = false;
      for (const Cube& c : f) {
        if (cube_part_full(dom, c, p)) continue;
        any_nonfull = true;
        for (int i = 0; i < len; ++i)
          if (c.bits.test(static_cast<std::size_t>(off + i)))
            seen[static_cast<std::size_t>(i)] = true;
      }
      if (!any_nonfull) continue;
      int missing = -1;
      for (int i = 0; i < len; ++i)
        if (!seen[static_cast<std::size_t>(i)]) {
          missing = i;
          break;
        }
      if (missing < 0) continue;
      // Keep only cubes full in part p.
      Cover kept(dom);
      for (const Cube& c : f)
        if (cube_part_full(dom, c, p)) kept.add(c);
      f = std::move(kept);
      changed = true;
    }
  }
}

bool is_tautology_rec(Cover f) {
  if (f.empty()) return false;
  if (f.has_full_cube()) return true;
  if (!all_columns_covered(f)) return false;
  unate_reduce(f);
  if (f.empty()) return false;
  if (f.has_full_cube()) return true;
  if (!all_columns_covered(f)) return false;
  f.make_scc_minimal();

  const int p = select_binate_part(f);
  if (p < 0) return f.has_full_cube();
  const Domain& dom = f.domain();
  for (int j = 0; j < dom.part_size(p); ++j) {
    const Cube lit = literal_cube(dom, p, j);
    if (!is_tautology_rec(cover_cofactor(f, lit))) return false;
  }
  return true;
}

Cover complement_rec(Cover f) {
  const Domain& dom = f.domain();
  if (f.empty()) return universe_cover(dom);
  if (f.has_full_cube()) return Cover(dom);
  if (f.size() == 1) {
    Cover out(dom);
    for (Cube& c : cube_complement(dom, f[0])) out.add(std::move(c));
    return out;
  }
  f.make_scc_minimal();
  if (f.size() == 1) return complement_rec(std::move(f));

  const int p = select_binate_part(f);
  assert(p >= 0);
  Cover out(dom);
  for (int j = 0; j < dom.part_size(p); ++j) {
    const Cube lit = literal_cube(dom, p, j);
    Cover sub = complement_rec(cover_cofactor(f, lit));
    for (const Cube& c : sub) {
      if (auto r = cube_intersect(dom, c, lit)) out.add(std::move(*r));
    }
  }
  out.make_scc_minimal();
  return out;
}

}  // namespace

bool is_tautology(const Cover& f) { return is_tautology_rec(f); }

Cover complement(const Cover& f) { return complement_rec(f); }

bool cover_contains_cube(const Cover& f, const Cube& c) {
  if (cube_is_empty(f.domain(), c)) return true;
  return is_tautology(cover_cofactor(f, c));
}

bool cover_contains(const Cover& f, const Cover& g) {
  for (const Cube& c : g)
    if (!cover_contains_cube(f, c)) return false;
  return true;
}

bool covers_equivalent(const Cover& f, const Cover& g, const Cover& dc) {
  Cover f_dc = f;
  f_dc.add_all(dc);
  Cover g_dc = g;
  g_dc.add_all(dc);
  return cover_contains(g_dc, f) && cover_contains(f_dc, g);
}

}  // namespace encodesat
