#include "fuzz/generator.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace encodesat {

namespace {

// Draws k distinct symbol ids from [0, n).
std::vector<std::uint32_t> sample_distinct(Rng& rng, std::uint32_t n,
                                           std::uint32_t k) {
  std::vector<std::uint32_t> pool(n);
  for (std::uint32_t i = 0; i < n; ++i) pool[i] = i;
  std::vector<std::uint32_t> out;
  out.reserve(k);
  for (std::uint32_t i = 0; i < k && !pool.empty(); ++i) {
    const std::size_t j = rng.next_below(pool.size());
    out.push_back(pool[j]);
    pool[j] = pool.back();
    pool.pop_back();
  }
  return out;
}

enum class ClassId {
  kFace,
  kDominance,
  kDisjunctive,
  kExtended,
  kDistance2,
  kNonFace,
};

void add_random_face(Rng& rng, ConstraintSet& cs, std::uint32_t n,
                     double dontcare_density) {
  const std::uint32_t max_members = std::min<std::uint32_t>(n, 4);
  const std::uint32_t m =
      2 + static_cast<std::uint32_t>(rng.next_below(max_members - 1));
  std::vector<std::uint32_t> members = sample_distinct(rng, n, m);
  Bitset in_members(n);
  for (auto s : members) in_members.set(s);
  std::vector<std::uint32_t> dontcares;
  for (std::uint32_t s = 0; s < n; ++s)
    if (!in_members.test(s) && rng.next_bool(dontcare_density))
      dontcares.push_back(s);
  cs.add_face_ids(std::move(members), std::move(dontcares));
}

// Injects one deliberately infeasible pattern over randomly chosen symbols.
void add_infeasible_mutation(Rng& rng, ConstraintSet& cs, std::uint32_t n) {
  // Four mutation shapes; the heavier ones need more symbols.
  std::uint32_t shape = static_cast<std::uint32_t>(rng.next_below(4));
  if (shape == 3 && n < 6) shape = static_cast<std::uint32_t>(rng.next_below(3));
  if (shape >= 1 && shape <= 2 && n < 3) shape = 0;
  switch (shape) {
    case 0: {
      // Mutual dominance forces equal codes.
      const auto p = sample_distinct(rng, n, 2);
      cs.add_dominance_ids(p[0], p[1]);
      cs.add_dominance_ids(p[1], p[0]);
      break;
    }
    case 1: {
      // Dominance 3-cycle.
      const auto t = sample_distinct(rng, n, 3);
      cs.add_dominance_ids(t[0], t[1]);
      cs.add_dominance_ids(t[1], t[2]);
      cs.add_dominance_ids(t[2], t[0]);
      break;
    }
    case 2: {
      // p = a OR b implies p > a; adding a > p forces a == p.
      const auto t = sample_distinct(rng, n, 3);
      cs.add_disjunctive_ids(t[0], {t[1], t[2]});
      cs.add_dominance_ids(t[1], t[0]);
      break;
    }
    default: {
      // Figure 4 of the paper: infeasible, yet every *local* consistency
      // condition holds — the class of conflicts only transitive raising
      // detects. Mapped onto six random symbols.
      const auto s = sample_distinct(rng, n, 6);
      cs.add_face_ids({s[1], s[5]});
      cs.add_face_ids({s[2], s[5]});
      cs.add_face_ids({s[4], s[5]});
      cs.add_dominance_ids(s[0], s[1]);
      cs.add_dominance_ids(s[0], s[2]);
      cs.add_dominance_ids(s[0], s[3]);
      cs.add_dominance_ids(s[0], s[5]);
      cs.add_dominance_ids(s[1], s[3]);
      cs.add_dominance_ids(s[2], s[3]);
      cs.add_dominance_ids(s[4], s[5]);
      cs.add_dominance_ids(s[5], s[2]);
      cs.add_dominance_ids(s[5], s[3]);
      cs.add_disjunctive_ids(s[0], {s[1], s[2]});
      break;
    }
  }
}

}  // namespace

std::optional<GeneratorOptions> generator_mix(const std::string& name) {
  GeneratorOptions o;
  if (name.empty() || name == "default") return o;
  if (name == "input") {
    o.face_weight = 1.0;
    o.dominance_weight = o.disjunctive_weight = o.extended_weight = 0;
    o.distance2_weight = o.nonface_weight = 0;
    o.dontcare_density = 0.35;
    o.infeasible_mutation_rate = 0;
    o.constraints_per_symbol = 1.2;
    return o;
  }
  if (name == "output") {
    o.face_weight = 0.3;
    o.dominance_weight = 1.2;
    o.disjunctive_weight = 0.8;
    o.extended_weight = 0.6;
    o.distance2_weight = o.nonface_weight = 0;
    o.infeasible_mutation_rate = 0.35;
    return o;
  }
  if (name == "extensions") {
    o.distance2_weight = 0.6;
    o.nonface_weight = 0.6;
    o.max_symbols = 8;
    return o;
  }
  if (name == "infeasible") {
    o.infeasible_mutation_rate = 1.0;
    return o;
  }
  return std::nullopt;
}

std::uint64_t fuzz_case_seed(std::uint64_t run_seed, std::uint64_t index) {
  // One extra splitmix64 scramble over the combined words so adjacent
  // indices land in unrelated regions of the generator's state space.
  std::uint64_t z = run_seed + index * 0x9e3779b97f4a7c15ull +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ConstraintSet generate_case(std::uint64_t case_seed,
                            const GeneratorOptions& opts) {
  // Smallest case: three symbols, enough for every constraint class.
  constexpr std::uint32_t kMinSymbols = 3;
  Rng rng(case_seed);
  const std::uint32_t lo = kMinSymbols;
  const std::uint32_t hi = std::max(lo, opts.max_symbols);
  const std::uint32_t n =
      lo + static_cast<std::uint32_t>(rng.next_below(hi - lo + 1));

  ConstraintSet cs;
  for (std::uint32_t i = 0; i < n; ++i)
    cs.symbols().intern("s" + std::to_string(i));

  // Cumulative class-weight table; classes needing >= 3 symbols drop out
  // on 2-symbol cases.
  std::vector<std::pair<ClassId, double>> classes;
  auto push = [&](ClassId id, double w, std::uint32_t min_n) {
    if (w > 0 && n >= min_n) classes.emplace_back(id, w);
  };
  push(ClassId::kFace, opts.face_weight, 3);
  push(ClassId::kDominance, opts.dominance_weight, 2);
  push(ClassId::kDisjunctive, opts.disjunctive_weight, 3);
  push(ClassId::kExtended, opts.extended_weight, 3);
  push(ClassId::kDistance2, opts.distance2_weight, 2);
  push(ClassId::kNonFace, opts.nonface_weight, 3);
  double total = 0;
  for (const auto& [id, w] : classes) total += w;

  const std::uint32_t count = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::lround(opts.constraints_per_symbol * n)));
  for (std::uint32_t c = 0; c < count && total > 0; ++c) {
    double pick = rng.next_double() * total;
    ClassId id = classes.back().first;
    for (const auto& [cid, w] : classes) {
      if (pick < w) {
        id = cid;
        break;
      }
      pick -= w;
    }
    switch (id) {
      case ClassId::kFace:
        add_random_face(rng, cs, n, opts.dontcare_density);
        break;
      case ClassId::kDominance: {
        const auto p = sample_distinct(rng, n, 2);
        cs.add_dominance_ids(p[0], p[1]);
        break;
      }
      case ClassId::kDisjunctive: {
        const std::uint32_t k = std::min<std::uint32_t>(
            n - 1, 2 + static_cast<std::uint32_t>(rng.next_below(2)));
        auto picked = sample_distinct(rng, n, k + 1);
        const std::uint32_t parent = picked.back();
        picked.pop_back();
        cs.add_disjunctive_ids(parent, std::move(picked));
        break;
      }
      case ClassId::kExtended: {
        auto picked = sample_distinct(
            rng, n,
            std::min<std::uint32_t>(
                n, 3 + static_cast<std::uint32_t>(rng.next_below(3))));
        const std::uint32_t parent = picked.back();
        picked.pop_back();
        // Split the remaining symbols into 1-2 conjunctions.
        ExtendedDisjunctiveConstraint e;
        e.parent = parent;
        const std::size_t cut =
            picked.size() >= 2 ? 1 + rng.next_below(picked.size() - 1)
                               : picked.size();
        e.conjunctions.emplace_back(picked.begin(),
                                    picked.begin() + static_cast<long>(cut));
        if (cut < picked.size())
          e.conjunctions.emplace_back(picked.begin() + static_cast<long>(cut),
                                      picked.end());
        cs.extended_disjunctives().push_back(std::move(e));
        break;
      }
      case ClassId::kDistance2: {
        const auto p = sample_distinct(rng, n, 2);
        cs.distance2s().push_back(Distance2Constraint{p[0], p[1]});
        break;
      }
      case ClassId::kNonFace: {
        const std::uint32_t k = std::min<std::uint32_t>(
            n, 2 + static_cast<std::uint32_t>(rng.next_below(2)));
        cs.nonfaces().push_back(NonFaceConstraint{sample_distinct(rng, n, k)});
        break;
      }
    }
  }

  if (rng.next_bool(opts.infeasible_mutation_rate))
    add_infeasible_mutation(rng, cs, n);
  return cs;
}

}  // namespace encodesat
