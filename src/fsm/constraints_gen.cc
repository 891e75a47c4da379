#include "fsm/constraints_gen.h"

#include <algorithm>
#include <functional>
#include <set>

#include "logic/espresso.h"
#include "logic/urp.h"
#include "util/exec.h"

namespace encodesat {

namespace {

Domain symbolic_domain(const Fsm& fsm) {
  std::vector<int> sizes(static_cast<std::size_t>(fsm.num_inputs), 2);
  sizes.push_back(static_cast<int>(fsm.num_states()));  // present state (MV)
  return Domain(std::move(sizes),
                static_cast<int>(fsm.num_states()) + fsm.num_outputs);
}

// Input/state part of one transition over `dom` (outputs left clear).
Cube transition_input_cube(const Domain& dom, const Fsm& fsm,
                           const FsmTransition& t) {
  Cube c(dom);
  for (int v = 0; v < fsm.num_inputs; ++v) {
    const char ch = t.input[static_cast<std::size_t>(v)];
    if (ch == '0' || ch == '-')
      c.bits.set(static_cast<std::size_t>(dom.pos(v, 0)));
    if (ch == '1' || ch == '-')
      c.bits.set(static_cast<std::size_t>(dom.pos(v, 1)));
  }
  c.bits.set(
      static_cast<std::size_t>(dom.pos(fsm.num_inputs, static_cast<int>(t.from))));
  return c;
}

}  // namespace

Cover fsm_symbolic_cover(const Fsm& fsm) {
  const Domain dom = symbolic_domain(fsm);
  Cover on(dom);
  for (const auto& t : fsm.transitions) {
    Cube c = transition_input_cube(dom, fsm, t);
    c.bits.set(static_cast<std::size_t>(dom.out_pos(static_cast<int>(t.to))));
    for (int o = 0; o < fsm.num_outputs; ++o)
      if (t.output[static_cast<std::size_t>(o)] == '1')
        c.bits.set(static_cast<std::size_t>(
            dom.out_pos(static_cast<int>(fsm.num_states()) + o)));
    on.add(c);
  }
  return on;
}

namespace {

// State groups (as sorted index vectors) from the MV literals of the
// minimized symbolic cover.
std::vector<std::vector<std::uint32_t>> state_groups(const Fsm& fsm) {
  const Cover on = fsm_symbolic_cover(fsm);
  const Domain& dom = on.domain();
  const Cover minimized = espresso(on, Cover(dom));

  std::set<std::vector<std::uint32_t>> groups;
  const int sv = fsm.num_inputs;  // the MV state variable
  for (const Cube& c : minimized) {
    std::vector<std::uint32_t> g;
    for (std::uint32_t s = 0; s < fsm.num_states(); ++s)
      if (c.bits.test(
              static_cast<std::size_t>(dom.pos(sv, static_cast<int>(s)))))
        g.push_back(s);
    if (g.size() >= 2 && g.size() < fsm.num_states()) groups.insert(std::move(g));
  }
  return {groups.begin(), groups.end()};
}

}  // namespace

ConstraintSet generate_input_constraints(const Fsm& fsm,
                                         const ConstraintGenOptions& opts) {
  ConstraintSet cs;
  for (std::uint32_t s = 0; s < fsm.num_states(); ++s)
    cs.symbols().intern(fsm.states.name(s));

  const auto groups = state_groups(fsm);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    std::vector<std::uint32_t> dontcares;
    if (opts.face_dontcares) {
      // If another group strictly contains this one, its extra states may
      // or may not join the face: encode them as don't-cares (§8.1). This
      // reflects a reduced implicant contained in an expanded one.
      for (std::size_t j = 0; j < groups.size(); ++j) {
        if (i == j || groups[j].size() <= groups[i].size()) continue;
        if (std::includes(groups[j].begin(), groups[j].end(),
                          groups[i].begin(), groups[i].end())) {
          for (auto s : groups[j])
            if (!std::binary_search(groups[i].begin(), groups[i].end(), s) &&
                std::find(dontcares.begin(), dontcares.end(), s) ==
                    dontcares.end())
              dontcares.push_back(s);
        }
      }
    }
    cs.add_face_ids(groups[i], std::move(dontcares));
  }
  return cs;
}

namespace {

// ON-set of next-state s over the input × present-state space.
Cover next_state_onset(const Domain& dom, const Fsm& fsm, std::uint32_t s) {
  Cover on(dom);
  for (const auto& t : fsm.transitions) {
    if (t.to != s) continue;
    Cube c = transition_input_cube(dom, fsm, t);
    c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
    on.add(c);
  }
  return on;
}

}  // namespace

ConstraintSet generate_mixed_constraints(const Fsm& fsm,
                                         const ConstraintGenOptions& opts) {
  ConstraintSet cs = generate_input_constraints(fsm, opts);
  const std::uint32_t n = fsm.num_states();

  // Single-output view of the input × present-state space.
  std::vector<int> sizes(static_cast<std::size_t>(fsm.num_inputs), 2);
  sizes.push_back(static_cast<int>(n));
  const Domain dom(std::move(sizes), 1);

  std::vector<Cover> onsets;
  onsets.reserve(n);
  std::vector<std::size_t> base_cost(n, 0);
  EspressoOptions fast;
  fast.single_pass = true;
  for (std::uint32_t s = 0; s < n; ++s) {
    onsets.push_back(next_state_onset(dom, fsm, s));
    base_cost[s] = espresso(onsets[s], Cover(dom), fast).size();
  }

  // Dominance candidates scored by the merge gain: if code(a) covers
  // code(b), every encoded cube asserting b's code bits also asserts a
  // subset of a's, so cubes of the two next-state functions can share; the
  // two-level proxy is the cube-count saving of minimizing the union of the
  // ON-sets against minimizing them separately.
  struct Candidate {
    int gain;
    std::uint32_t a, b;  // proposes a > b
  };
  std::vector<Candidate> candidates;
  const std::size_t max_pair_evals = 800;
  std::size_t evals = 0;
  for (std::uint32_t a = 0; a < n && evals < max_pair_evals; ++a) {
    if (onsets[a].empty()) continue;
    for (std::uint32_t b = a + 1; b < n && evals < max_pair_evals; ++b) {
      if (onsets[b].empty()) continue;
      ++evals;
      Cover merged = onsets[a];
      merged.add_all(onsets[b]);
      const std::size_t together = espresso(merged, Cover(dom), fast).size();
      if (together >= base_cost[a] + base_cost[b]) continue;
      const int gain =
          static_cast<int>(base_cost[a] + base_cost[b] - together);
      // Dominator = the state with the larger cover (its cubes absorb).
      const bool a_dominates = base_cost[a] >= base_cost[b];
      candidates.push_back(Candidate{gain, a_dominates ? a : b,
                                     a_dominates ? b : a});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.gain != y.gain) return x.gain > y.gain;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });

  // Disjunctive effects first, while the constraint set is still loose: a
  // state whose cover merges well with two others may be realizable as the
  // bitwise OR of their codes (the disjunction implies both dominances).
  // Proposed before the dominance pass because a = b OR c is much stronger
  // than a > b and rarely survives once many dominances are committed.
  std::vector<Bitset> reach(n, Bitset(n));  // reach[a].test(b): a ->* b
  auto creates_cycle = [&](std::uint32_t a, std::uint32_t b) {
    return reach[b].test(a) || a == b;
  };
  auto add_edge = [&](std::uint32_t a, std::uint32_t b) {
    // a -> b: everything reaching a now reaches b and b's reachees.
    Bitset down = reach[b];
    down.set(b);
    for (std::uint32_t s = 0; s < n; ++s)
      if (s == a || reach[s].test(a)) reach[s] |= down;
  };

  // Feasibility checks on the large machines are expensive (each one walks
  // every initial dichotomy), so acceptance uses group testing: try a whole
  // batch, and on failure recurse into halves to isolate the breakers —
  // O(#breakers * log batch) checks instead of one per candidate.
  // The budget scales down with machine size: each check walks every
  // initial dichotomy, which grows roughly quadratically with the states.
  int checks_left = n <= 24 ? 400 : (n <= 40 ? 160 : 64);
  auto feasible_now = [&]() {
    --checks_left;
    return check_feasible(cs, ExecContext{}).feasible;
  };

  int disj = 0;
  {
    std::vector<std::vector<std::uint32_t>> children_of(n);
    for (const Candidate& c : candidates)
      children_of[c.a].push_back(c.b);
    // Only the top dominators by candidate gain are worth a check.
    std::vector<std::uint32_t> order;
    for (const Candidate& c : candidates)
      if (std::find(order.begin(), order.end(), c.a) == order.end())
        order.push_back(c.a);
    int attempts = 2 * opts.max_disjunctive;
    for (std::uint32_t a : order) {
      if (disj >= opts.max_disjunctive || attempts <= 0 || checks_left <= 0)
        break;
      const auto& kids = children_of[a];
      if (kids.size() < 2) continue;
      if (creates_cycle(a, kids[0]) || creates_cycle(a, kids[1])) continue;
      --attempts;
      cs.add_disjunctive_ids(a, {kids[0], kids[1]});
      if (!feasible_now()) {
        cs.disjunctives().pop_back();
        continue;
      }
      add_edge(a, kids[0]);
      add_edge(a, kids[1]);
      ++disj;
    }
  }

  // Dominance acceptance by recursive group testing. Feasibility is
  // anti-monotone in the constraint set (dropping constraints never hurts),
  // so a feasible batch can be committed wholesale.
  int taken = 0;
  std::size_t cursor = 0;
  std::function<void(std::vector<std::pair<std::uint32_t, std::uint32_t>>)>
      accept_group = [&](std::vector<std::pair<std::uint32_t, std::uint32_t>>
                             group) {
        // Filter against the edges committed so far.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> live;
        for (auto [a, b] : group) {
          if (creates_cycle(a, b) || reach[a].test(b)) {
            std::swap(a, b);
            if (creates_cycle(a, b) || reach[a].test(b)) continue;
          }
          live.emplace_back(a, b);
          // Tentative edge so later group members stay mutually acyclic.
          add_edge(a, b);
        }
        // Roll the tentative edges back; commits re-add them.
        // (Recompute reach from committed dominance/disjunctive edges.)
        auto rebuild_reach = [&]() {
          for (auto& r : reach) r.clear();
          for (const auto& d : cs.dominances()) add_edge(d.dominator, d.dominated);
          for (const auto& dj : cs.disjunctives())
            for (auto c : dj.children) add_edge(dj.parent, c);
        };
        rebuild_reach();
        if (live.empty()) return;
        if (taken + static_cast<int>(live.size()) > opts.max_dominance)
          live.resize(static_cast<std::size_t>(opts.max_dominance - taken));
        if (live.empty() || checks_left <= 0) return;

        const std::size_t before = cs.dominances().size();
        for (const auto& [a, b] : live) cs.add_dominance_ids(a, b);
        if (feasible_now()) {
          taken += static_cast<int>(live.size());
          rebuild_reach();
          return;
        }
        cs.dominances().resize(before);
        rebuild_reach();
        if (live.size() == 1) return;  // isolated breaker: drop it
        const std::size_t half = live.size() / 2;
        accept_group({live.begin(), live.begin() + static_cast<long>(half)});
        accept_group({live.begin() + static_cast<long>(half), live.end()});
      };

  while (taken < opts.max_dominance && cursor < candidates.size() &&
         checks_left > 0) {
    // Modest batches localize infeasibility quickly when breakers are
    // common (group testing degenerates on dense breaker sets).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> group;
    for (; cursor < candidates.size() && group.size() < 8; ++cursor)
      group.emplace_back(candidates[cursor].a, candidates[cursor].b);
    if (group.empty()) break;
    accept_group(std::move(group));
  }
  return cs;
}

}  // namespace encodesat
