#include "core/output_rules.h"

#include <algorithm>

namespace encodesat {

bool dichotomy_valid(const Dichotomy& d, const ConstraintSet& cs) {
  for (const auto& dom : cs.dominances()) {
    if (d.in_left(dom.dominator) && d.in_right(dom.dominated)) return false;
  }
  for (const auto& dj : cs.disjunctives()) {
    if (d.in_left(dj.parent)) {
      // Parent bit 0 forces every child to 0.
      for (auto c : dj.children)
        if (d.in_right(c)) return false;
    }
    if (d.in_right(dj.parent)) {
      // Parent bit 1 needs some child at 1; dead if all are already 0.
      bool all_left = true;
      for (auto c : dj.children)
        if (!d.in_left(c)) {
          all_left = false;
          break;
        }
      if (all_left) return false;
    }
  }
  for (const auto& ex : cs.extended_disjunctives()) {
    if (!d.in_right(ex.parent)) continue;
    // Parent bit 1 needs some conjunction fully at 1; dead if every
    // conjunction already has a child at 0.
    bool all_killed = true;
    for (const auto& conj : ex.conjunctions) {
      bool killed = false;
      for (auto c : conj)
        if (d.in_left(c)) {
          killed = true;
          break;
        }
      if (!killed) {
        all_killed = false;
        break;
      }
    }
    if (all_killed) return false;
  }
  return true;
}

void remove_invalid_dichotomies(std::vector<Dichotomy>& ds,
                                const ConstraintSet& cs) {
  ds.erase(std::remove_if(
               ds.begin(), ds.end(),
               [&](const Dichotomy& d) { return !dichotomy_valid(d, cs); }),
           ds.end());
}

namespace {

// Inserts s into the left block; returns false on contradiction.
bool put_left(Dichotomy& d, std::uint32_t s, bool& changed) {
  if (d.in_right(s)) return false;
  if (!d.in_left(s)) {
    d.left.set(s);
    changed = true;
  }
  return true;
}

bool put_right(Dichotomy& d, std::uint32_t s, bool& changed) {
  if (d.in_left(s)) return false;
  if (!d.in_right(s)) {
    d.right.set(s);
    changed = true;
  }
  return true;
}

}  // namespace

bool raise_dichotomy(Dichotomy& d, const ConstraintSet& cs) {
  bool changed = true;
  while (changed) {
    changed = false;

    // Dominance a > b: a at 0 forces b to 0; b at 1 forces a to 1.
    for (const auto& dom : cs.dominances()) {
      if (d.in_left(dom.dominator) &&
          !put_left(d, dom.dominated, changed))
        return false;
      if (d.in_right(dom.dominated) &&
          !put_right(d, dom.dominator, changed))
        return false;
    }

    // Disjunctive p = OR(children). The parent dominates every child, and
    // additionally is forced to 0 when all children are 0 and to 1 when any
    // child is 1; a parent at 1 with all children but one at 0 forces the
    // last child to 1.
    for (const auto& dj : cs.disjunctives()) {
      if (d.in_left(dj.parent)) {
        for (auto c : dj.children)
          if (!put_left(d, c, changed)) return false;
      }
      bool any_right = false, all_left = true;
      std::uint32_t last_free = 0;
      int free_count = 0;
      for (auto c : dj.children) {
        if (d.in_right(c)) any_right = true;
        if (!d.in_left(c)) {
          all_left = false;
          last_free = c;
          ++free_count;
        }
      }
      if (any_right && !put_right(d, dj.parent, changed)) return false;
      if (all_left && !put_left(d, dj.parent, changed)) return false;
      if (d.in_right(dj.parent) && free_count == 1 &&
          !put_right(d, last_free, changed))
        return false;
    }

    // Extended disjunctive OR(AND(conj)) >= p: if every conjunction has a
    // child at 0 the RHS is 0, forcing p to 0; if p is 1 and exactly one
    // conjunction is still alive, all its children must be 1.
    for (const auto& ex : cs.extended_disjunctives()) {
      int alive = 0;
      const std::vector<std::uint32_t>* last_alive = nullptr;
      for (const auto& conj : ex.conjunctions) {
        bool killed = false;
        for (auto c : conj)
          if (d.in_left(c)) {
            killed = true;
            break;
          }
        if (!killed) {
          ++alive;
          last_alive = &conj;
        }
      }
      if (alive == 0) {
        if (!put_left(d, ex.parent, changed)) return false;
      } else if (alive == 1 && d.in_right(ex.parent)) {
        for (auto c : *last_alive)
          if (!put_right(d, c, changed)) return false;
      }
    }
  }
  return true;
}

bool raise_and_validate(Dichotomy& d, const ConstraintSet& cs) {
  return dichotomy_valid(d, cs) && raise_dichotomy(d, cs) &&
         dichotomy_valid(d, cs);
}

}  // namespace encodesat
