#include "fuzz/minimizer.h"

#include <algorithm>

namespace encodesat {

namespace {

// Tries each whole-constraint removal once; commits those that keep the
// predicate true. Returns the number of constraints removed.
int remove_constraints_pass(ConstraintSet& cs,
                            const DivergencePredicate& pred, int* probes) {
  int removed = 0;
  auto try_erase = [&](auto member) {
    auto& vec = (cs.*member)();
    for (std::size_t i = vec.size(); i-- > 0;) {
      ConstraintSet candidate = cs;
      auto& cvec = (candidate.*member)();
      cvec.erase(cvec.begin() + static_cast<long>(i));
      ++*probes;
      if (pred(candidate)) {
        cs = std::move(candidate);
        ++removed;
      }
    }
  };
  // Non-const accessor member-function pointers, one per class.
  try_erase(static_cast<std::vector<FaceConstraint>& (ConstraintSet::*)()>(
      &ConstraintSet::faces));
  try_erase(
      static_cast<std::vector<DominanceConstraint>& (ConstraintSet::*)()>(
          &ConstraintSet::dominances));
  try_erase(
      static_cast<std::vector<DisjunctiveConstraint>& (ConstraintSet::*)()>(
          &ConstraintSet::disjunctives));
  try_erase(static_cast<std::vector<ExtendedDisjunctiveConstraint>& (
                ConstraintSet::*)()>(&ConstraintSet::extended_disjunctives));
  try_erase(
      static_cast<std::vector<Distance2Constraint>& (ConstraintSet::*)()>(
          &ConstraintSet::distance2s));
  try_erase(static_cast<std::vector<NonFaceConstraint>& (ConstraintSet::*)()>(
      &ConstraintSet::nonfaces));
  return removed;
}

// Tries dropping single elements inside constraints (respecting arity
// minimums so the result stays parseable). Returns elements removed.
int shrink_elements_pass(ConstraintSet& cs, const DivergencePredicate& pred,
                         int* probes) {
  int removed = 0;
  auto attempt = [&](ConstraintSet&& candidate) {
    ++*probes;
    if (pred(candidate)) {
      cs = std::move(candidate);
      ++removed;
      return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < cs.faces().size(); ++i) {
    for (std::size_t m = cs.faces()[i].members.size();
         m-- > 0 && cs.faces()[i].members.size() > 2;) {
      ConstraintSet candidate = cs;
      auto& v = candidate.faces()[i].members;
      v.erase(v.begin() + static_cast<long>(m));
      attempt(std::move(candidate));
    }
    for (std::size_t m = cs.faces()[i].dontcares.size(); m-- > 0;) {
      ConstraintSet candidate = cs;
      auto& v = candidate.faces()[i].dontcares;
      v.erase(v.begin() + static_cast<long>(m));
      attempt(std::move(candidate));
    }
  }
  for (std::size_t i = 0; i < cs.disjunctives().size(); ++i)
    for (std::size_t m = cs.disjunctives()[i].children.size();
         m-- > 0 && cs.disjunctives()[i].children.size() > 2;) {
      ConstraintSet candidate = cs;
      auto& v = candidate.disjunctives()[i].children;
      v.erase(v.begin() + static_cast<long>(m));
      attempt(std::move(candidate));
    }
  for (std::size_t i = 0; i < cs.extended_disjunctives().size(); ++i) {
    for (std::size_t m = cs.extended_disjunctives()[i].conjunctions.size();
         m-- > 0 && cs.extended_disjunctives()[i].conjunctions.size() > 1;) {
      ConstraintSet candidate = cs;
      auto& v = candidate.extended_disjunctives()[i].conjunctions;
      v.erase(v.begin() + static_cast<long>(m));
      attempt(std::move(candidate));
    }
    for (std::size_t m = 0;
         m < cs.extended_disjunctives()[i].conjunctions.size(); ++m)
      for (std::size_t k = cs.extended_disjunctives()[i].conjunctions[m].size();
           k-- > 0 &&
           cs.extended_disjunctives()[i].conjunctions[m].size() > 1;) {
        ConstraintSet candidate = cs;
        auto& v = candidate.extended_disjunctives()[i].conjunctions[m];
        v.erase(v.begin() + static_cast<long>(k));
        attempt(std::move(candidate));
      }
  }
  for (std::size_t i = 0; i < cs.nonfaces().size(); ++i)
    for (std::size_t m = cs.nonfaces()[i].members.size();
         m-- > 0 && cs.nonfaces()[i].members.size() > 2;) {
      ConstraintSet candidate = cs;
      auto& v = candidate.nonfaces()[i].members;
      v.erase(v.begin() + static_cast<long>(m));
      attempt(std::move(candidate));
    }
  return removed;
}

// Tries removing symbols no constraint references, one at a time (removal
// still changes verdicts — distinct-code pressure, face intrusion — so
// each is re-validated). Removing a symbol renumbers only the symbols
// after it, so the ids still to visit keep their references.
int remove_symbols_pass(ConstraintSet& cs, const DivergencePredicate& pred,
                        int* probes) {
  int removed = 0;
  std::vector<bool> referenced(cs.num_symbols(), false);
  cs.for_each_symbol([&](std::uint32_t id) { referenced[id] = true; });
  for (std::uint32_t id = cs.num_symbols(); id-- > 0;) {
    if (referenced[id]) continue;
    std::vector<std::uint32_t> to_new(cs.num_symbols());
    for (std::uint32_t s = 0; s < to_new.size(); ++s)
      to_new[s] = s > id ? s - 1 : s;
    ConstraintSet candidate = cs.relabeled(to_new);
    for (std::uint32_t s = 0; s < cs.num_symbols(); ++s)
      if (s != id) candidate.symbols().intern(cs.symbols().name(s));
    ++*probes;
    if (pred(candidate)) {
      cs = std::move(candidate);
      ++removed;
    }
  }
  return removed;
}

}  // namespace

MinimizeResult minimize_divergence(const ConstraintSet& cs,
                                   const DivergencePredicate& still_diverges) {
  MinimizeResult res;
  res.constraints = cs;
  ++res.probes;
  if (!still_diverges(res.constraints)) return res;

  for (;;) {
    int changed = 0;
    changed += remove_constraints_pass(res.constraints, still_diverges,
                                       &res.probes);
    res.removed_constraints += changed;
    const int elements =
        shrink_elements_pass(res.constraints, still_diverges, &res.probes);
    res.removed_elements += elements;
    const int symbols =
        remove_symbols_pass(res.constraints, still_diverges, &res.probes);
    res.removed_symbols += symbols;
    if (changed + elements + symbols == 0) break;
  }
  return res;
}

DivergencePredicate rule_predicate(FuzzRule rule,
                                   const DifferentialOptions& opts) {
  return [rule, opts](const ConstraintSet& cs) {
    const FuzzCaseResult r = run_differential_case(cs, opts);
    return std::any_of(
        r.divergences.begin(), r.divergences.end(),
        [&](const FuzzDivergence& d) { return d.rule == rule; });
  };
}

}  // namespace encodesat
