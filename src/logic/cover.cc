#include "logic/cover.h"

#include <algorithm>

namespace encodesat {

void Cover::add(Cube c) {
  if (cube_is_empty(dom_, c)) return;
  cubes_.push_back(std::move(c));
}

void Cover::add_all(const Cover& o) {
  for (const Cube& c : o) add(c);
}

void Cover::make_scc_minimal() {
  // Sort by descending popcount so a containing cube precedes the cubes it
  // contains; then a single forward pass suffices.
  std::stable_sort(cubes_.begin(), cubes_.end(),
                   [](const Cube& a, const Cube& b) {
                     return a.bits.count() > b.bits.count();
                   });
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (const Cube& c : cubes_) {
    bool contained = false;
    for (const Cube& k : kept) {
      if (cube_contains(k, c)) {
        contained = true;
        break;
      }
    }
    if (!contained) kept.push_back(c);
  }
  cubes_ = std::move(kept);
}

bool Cover::has_full_cube() const {
  const std::size_t all = static_cast<std::size_t>(dom_.total_parts());
  for (const Cube& c : cubes_)
    if (c.bits.count() == all) return true;
  return false;
}

int Cover::input_literals() const {
  int n = 0;
  for (const Cube& c : cubes_) n += cube_input_literals(dom_, c);
  return n;
}

std::string Cover::to_string() const {
  std::string s;
  for (const Cube& c : cubes_) {
    s += cube_to_string(dom_, c);
    s += '\n';
  }
  return s;
}

Cover universe_cover(const Domain& dom) {
  Cover out(dom);
  out.add(full_cube(dom));
  return out;
}

Cover cover_cofactor(const Cover& c, const Cube& p) {
  Cover out(c.domain());
  for (const Cube& q : c)
    if (auto r = cube_cofactor(c.domain(), q, p)) out.add(*r);
  return out;
}

}  // namespace encodesat
