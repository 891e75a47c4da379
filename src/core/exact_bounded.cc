#include "core/exact_bounded.h"

#include <stdexcept>

#include "core/verify.h"

namespace encodesat {

namespace {

struct Search {
  const ConstraintSet& cs;
  const ExactBoundedOptions& opts;
  std::uint32_t n;
  std::uint64_t space;

  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  Encoding current;
  std::vector<bool> assigned;
  std::vector<bool> used;
  int best_cost;
  Encoding best;
  bool found = false;

  // Violated faces decided so far: a face counts once all its members and
  // every potential intruder are assigned — conservatively, we count a face
  // as violated as soon as its members are all placed and some *assigned*
  // outsider sits in the span (it can never leave), which is a sound lower
  // bound on the final violation count.
  int violated_lower_bound() const {
    int v = 0;
    const std::uint64_t mask =
        current.bits >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << current.bits) - 1;
    for (const auto& f : cs.faces()) {
      bool all = true;
      for (auto m : f.members)
        if (!assigned[m]) {
          all = false;
          break;
        }
      if (!all) continue;
      std::uint64_t fixed = mask, ref = current.codes[f.members[0]];
      for (auto m : f.members) fixed &= ~(current.codes[m] ^ ref);
      const std::uint64_t value = ref & fixed;
      const Bitset inside =
          index_bitset(n, f.members) | index_bitset(n, f.dontcares);
      for (std::uint32_t s = 0; s < n; ++s) {
        if (!assigned[s] || inside.test(s)) continue;
        if ((current.codes[s] & fixed) == value) {
          ++v;
          break;
        }
      }
    }
    return v;
  }

  // Hard output constraints on fully assigned symbols only.
  bool outputs_consistent() const {
    for (const auto& d : cs.dominances()) {
      if (!assigned[d.dominator] || !assigned[d.dominated]) continue;
      if ((current.codes[d.dominator] & current.codes[d.dominated]) !=
          current.codes[d.dominated])
        return false;
    }
    for (const auto& dj : cs.disjunctives()) {
      bool all = assigned[dj.parent];
      for (auto c : dj.children) all = all && assigned[c];
      if (!all) continue;
      std::uint64_t orv = 0;
      for (auto c : dj.children) orv |= current.codes[c];
      if (orv != current.codes[dj.parent]) return false;
    }
    return true;
  }

  void solve(std::uint32_t s, int lb) {
    if (budget_exhausted) return;
    if (++nodes > opts.max_nodes) {
      budget_exhausted = true;
      return;
    }
    if (lb >= best_cost && found) return;
    if (s == n) {
      // Exact final count (don't-cares and unassigned cases resolved).
      int v = 0;
      for (const auto& f : cs.faces())
        if (!face_satisfied(current, cs, f)) ++v;
      if (!found || v < best_cost) {
        // Verify the hard output constraints exactly.
        bool ok = true;
        for (const auto& viol : verify_encoding(current, cs))
          if (viol.kind != Violation::Kind::kFace) ok = false;
        if (ok) {
          best_cost = v;
          best = current;
          found = true;
        }
      }
      return;
    }
    // Symmetry break: face constraints are invariant under XOR translation
    // of the whole code space, so without output constraints the first
    // symbol can be pinned to code 0. Dominance/disjunctive constraints are
    // not XOR-invariant, so the break is disabled in their presence.
    const std::uint64_t limit =
        (s == 0 && !cs.has_output_constraints()) ? 1 : space;
    for (std::uint64_t code = 0; code < limit; ++code) {
      if (used[code]) continue;
      used[code] = true;
      assigned[s] = true;
      current.codes[s] = code;
      if (outputs_consistent()) {
        const int new_lb = violated_lower_bound();
        if (!found || new_lb < best_cost) solve(s + 1, new_lb);
      }
      used[code] = false;
      assigned[s] = false;
    }
  }
};

}  // namespace

ExactBoundedResult exact_bounded_encode(const ConstraintSet& cs, int bits,
                                        const ExactBoundedOptions& opts) {
  ExactBoundedResult res;
  const std::uint32_t n = cs.num_symbols();
  if (bits < 1 || bits > 16) return res;
  const std::uint64_t space = std::uint64_t{1} << bits;
  if (space < n) throw std::invalid_argument("code space too small");

  Search search{cs,    opts,  n,  space, 0, false, Encoding{}, {}, {},
                0,     Encoding{}, false};
  search.current.bits = bits;
  search.current.codes.assign(n, 0);
  search.assigned.assign(n, false);
  search.used.assign(space, false);
  search.best_cost = static_cast<int>(cs.faces().size()) + 1;
  search.solve(0, 0);

  res.nodes_explored = search.nodes;
  if (!search.found) {
    res.status = search.budget_exhausted
                     ? ExactBoundedResult::Status::kBudget
                     : ExactBoundedResult::Status::kInfeasible;
    return res;
  }
  res.status = ExactBoundedResult::Status::kSolved;
  res.encoding = search.best;
  res.violated_faces = search.best_cost;
  res.optimal = !search.budget_exhausted;
  return res;
}

}  // namespace encodesat
