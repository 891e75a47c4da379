#include "logic/exact_minimize.h"

#include <optional>
#include <unordered_set>

#include "util/bitset.h"

namespace encodesat {

namespace {

// Generalized multi-valued consensus: for each part p, the p-consensus is
// the intersection everywhere else with the union at p; it is a valid
// implicant of a + b iff the cubes conflict in no part other than p. For
// binary single-output functions this degenerates to the classical
// distance-1 consensus; for MV/multi-output covers the distance-0 cases are
// required for prime completeness (Brayton et al., ch. 4).
std::vector<Cube> cube_consensus_all(const Domain& dom, const Cube& a,
                                     const Cube& b) {
  const int d = cube_distance(dom, a, b);
  if (d > 1) return {};
  Cube meet = a;
  meet.bits &= b.bits;
  Cube join = a;
  join.bits |= b.bits;

  auto consensus_at = [&](int part) -> std::optional<Cube> {
    // Valid only if every *other* part of the meet is nonempty, i.e. the
    // only possible conflict is at this part.
    if (d == 1 && !cube_part_empty(dom, meet, part)) return std::nullopt;
    Cube c = meet;
    const int off = dom.part_offset(part), len = dom.part_size(part);
    for (int i = 0; i < len; ++i)
      c.bits.assign(static_cast<std::size_t>(off + i),
                    join.bits.test(static_cast<std::size_t>(off + i)));
    if (cube_is_empty(dom, c)) return std::nullopt;
    return c;
  };

  std::vector<Cube> out;
  for (int p = 0; p < dom.num_parts(); ++p)
    if (auto c = consensus_at(p)) out.push_back(std::move(*c));
  return out;
}

struct CubeHash {
  std::size_t operator()(const Cube& c) const { return c.bits.hash(); }
};

}  // namespace

Cover generate_all_primes(const Cover& on, const Cover& dc,
                          std::size_t max_primes, bool* truncated) {
  const Domain& dom = on.domain();
  if (truncated) *truncated = false;
  Cover work = on;
  work.add_all(dc);
  work.make_scc_minimal();

  std::vector<Cube> cubes(work.begin(), work.end());
  std::unordered_set<Cube, CubeHash> seen(cubes.begin(), cubes.end());

  // Iterated consensus closure: any prime is reachable as a chain of
  // consensus steps from the initial cover (Quine / Brayton et al. ch. 4).
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      for (Cube& c : cube_consensus_all(dom, cubes[i], cubes[j])) {
        // Skip consensus cubes already contained somewhere.
        bool contained = false;
        for (const Cube& k : cubes)
          if (cube_contains(k, c)) {
            contained = true;
            break;
          }
        if (contained) continue;
        if (!seen.insert(c).second) continue;
        cubes.push_back(std::move(c));
        if (cubes.size() > max_primes) {
          if (truncated) *truncated = true;
          return Cover(dom);
        }
      }
    }
  }

  Cover closure(dom);
  for (Cube& c : cubes) closure.add(std::move(c));
  closure.make_scc_minimal();  // keep the maximal cubes: the primes
  return closure;
}

ExactMinimizeResult exact_minimize(const Cover& on, const Cover& dc,
                                   const ExactMinimizeOptions& opts) {
  const Domain& dom = on.domain();
  ExactMinimizeResult res;
  res.cover = Cover(dom);
  if (on.empty()) {
    res.status = ExactMinimizeResult::Status::kMinimized;
    res.optimal = true;
    return res;
  }
  if (dom.num_input_minterms() > opts.max_minterms) return res;

  bool truncated = false;
  const Cover primes = generate_all_primes(on, dc, opts.max_primes, &truncated);
  if (truncated) {
    res.status = ExactMinimizeResult::Status::kPrimeLimit;
    return res;
  }
  res.num_primes = primes.size();

  // Rows: every (input minterm, output) pair of the ON-set not absorbed by
  // the DC-set; columns: the primes.
  const int ni = dom.num_inputs();
  std::vector<int> values(static_cast<std::size_t>(ni), 0);
  UnateCoverProblem problem;
  problem.num_columns = primes.size();

  const unsigned long long total = dom.num_input_minterms();
  for (unsigned long long idx = 0; idx < total; ++idx) {
    // Decode idx into one value per input variable.
    unsigned long long rest = idx;
    for (int v = 0; v < ni; ++v) {
      values[static_cast<std::size_t>(v)] =
          static_cast<int>(rest % static_cast<unsigned long long>(dom.input_size(v)));
      rest /= static_cast<unsigned long long>(dom.input_size(v));
    }
    Cube point(dom);
    for (int v = 0; v < ni; ++v)
      point.bits.set(
          static_cast<std::size_t>(dom.pos(v, values[static_cast<std::size_t>(v)])));
    for (int o = 0; o < dom.num_outputs(); ++o) {
      point.bits.set(static_cast<std::size_t>(dom.out_pos(o)));
      auto member = [&](const Cover& cover) {
        for (const Cube& c : cover)
          if (cube_contains(c, point)) return true;
        return false;
      };
      if (member(on) && !member(dc)) {
        Bitset row(problem.num_columns);
        for (std::size_t p = 0; p < primes.size(); ++p)
          if (cube_contains(primes[p], point)) row.set(p);
        problem.rows.push_back(std::move(row));
      }
      point.bits.reset(static_cast<std::size_t>(dom.out_pos(o)));
    }
  }

  const CoverSolution sol = solve_unate_cover(problem, opts.cover_options);
  if (!sol.feasible) return res;  // cannot happen: primes cover the ON-set
  res.status = ExactMinimizeResult::Status::kMinimized;
  res.optimal = sol.optimal;
  for (std::size_t p : sol.columns) res.cover.add(primes[p]);
  return res;
}

}  // namespace encodesat
