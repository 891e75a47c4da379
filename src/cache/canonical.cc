#include "cache/canonical.h"

#include <algorithm>
#include <utility>

namespace encodesat {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Running structural hash; values are fed as fixed-width little-endian so
/// the stream is self-delimiting.
struct Mix {
  std::uint64_t h = kFnvOffset;
  Mix& add(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    h = fnv_bytes(h, b, 8);
    return *this;
  }
  Mix& add_all(const std::vector<std::uint64_t>& vs) {
    add(vs.size());
    for (std::uint64_t v : vs) add(v);
    return *this;
  }
};

// Role tags keep contributions from different constraint classes (and
// different roles within one class) from colliding.
enum RoleTag : std::uint64_t {
  kTagFaceMember = 1,
  kTagFaceDontcare,
  kTagDominator,
  kTagDominated,
  kTagDisjParent,
  kTagDisjChild,
  kTagExtParent,
  kTagExtMember,
  kTagDistance2,
  kTagNonFace,
  kTagIndividualize,
};

std::vector<std::uint64_t> sorted_colors(
    const std::vector<std::uint64_t>& colors,
    const std::vector<std::uint32_t>& ids) {
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (std::uint32_t id : ids) out.push_back(colors[id]);
  std::sort(out.begin(), out.end());
  return out;
}

/// One Weisfeiler–Lehman round: every symbol's new colour hashes its old
/// colour with the sorted multiset of its per-constraint role signatures.
std::vector<std::uint64_t> refine_round(const ConstraintSet& cs,
                                        const std::vector<std::uint64_t>& c) {
  const std::size_t n = cs.num_symbols();
  std::vector<std::vector<std::uint64_t>> contrib(n);

  for (const FaceConstraint& f : cs.faces()) {
    Mix sig;
    sig.add_all(sorted_colors(c, f.members)).add_all(
        sorted_colors(c, f.dontcares));
    for (std::uint32_t s : f.members)
      contrib[s].push_back(Mix().add(kTagFaceMember).add(sig.h).h);
    for (std::uint32_t s : f.dontcares)
      contrib[s].push_back(Mix().add(kTagFaceDontcare).add(sig.h).h);
  }
  for (const DominanceConstraint& d : cs.dominances()) {
    contrib[d.dominator].push_back(
        Mix().add(kTagDominator).add(c[d.dominated]).h);
    contrib[d.dominated].push_back(
        Mix().add(kTagDominated).add(c[d.dominator]).h);
  }
  for (const DisjunctiveConstraint& d : cs.disjunctives()) {
    Mix kids;
    kids.add_all(sorted_colors(c, d.children));
    contrib[d.parent].push_back(Mix().add(kTagDisjParent).add(kids.h).h);
    for (std::uint32_t s : d.children)
      contrib[s].push_back(
          Mix().add(kTagDisjChild).add(c[d.parent]).add(kids.h).h);
  }
  for (const ExtendedDisjunctiveConstraint& e : cs.extended_disjunctives()) {
    std::vector<std::uint64_t> conj_hashes;
    conj_hashes.reserve(e.conjunctions.size());
    for (const auto& conj : e.conjunctions)
      conj_hashes.push_back(Mix().add_all(sorted_colors(c, conj)).h);
    std::vector<std::uint64_t> all = conj_hashes;
    std::sort(all.begin(), all.end());
    const std::uint64_t all_h = Mix().add_all(all).h;
    contrib[e.parent].push_back(Mix().add(kTagExtParent).add(all_h).h);
    for (std::size_t ci = 0; ci < e.conjunctions.size(); ++ci)
      for (std::uint32_t s : e.conjunctions[ci])
        contrib[s].push_back(Mix()
                                 .add(kTagExtMember)
                                 .add(c[e.parent])
                                 .add(conj_hashes[ci])
                                 .add(all_h)
                                 .h);
  }
  for (const Distance2Constraint& d : cs.distance2s()) {
    contrib[d.a].push_back(Mix().add(kTagDistance2).add(c[d.b]).h);
    contrib[d.b].push_back(Mix().add(kTagDistance2).add(c[d.a]).h);
  }
  for (const NonFaceConstraint& f : cs.nonfaces()) {
    Mix sig;
    sig.add_all(sorted_colors(c, f.members));
    for (std::uint32_t s : f.members)
      contrib[s].push_back(Mix().add(kTagNonFace).add(sig.h).h);
  }

  std::vector<std::uint64_t> next(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::sort(contrib[s].begin(), contrib[s].end());
    next[s] = Mix().add(c[s]).add_all(contrib[s]).h;
  }
  return next;
}

bool same_partition(const std::vector<std::uint64_t>& a,
                    const std::vector<std::uint64_t>& b) {
  // a -> b must be a consistent (injective) colour renaming.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fwd, rev;
  for (std::size_t i = 0; i < a.size(); ++i) {
    fwd.emplace_back(a[i], b[i]);
    rev.emplace_back(b[i], a[i]);
  }
  auto consistent = [](std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                           m) {
    std::sort(m.begin(), m.end());
    for (std::size_t i = 1; i < m.size(); ++i)
      if (m[i].first == m[i - 1].first && m[i].second != m[i - 1].second)
        return false;
    return true;
  };
  return consistent(fwd) && consistent(rev);
}

void refine_to_fixpoint(const ConstraintSet& cs,
                        std::vector<std::uint64_t>& colors) {
  const std::size_t n = cs.num_symbols();
  for (std::size_t round = 0; round <= n; ++round) {
    std::vector<std::uint64_t> next = refine_round(cs, colors);
    const bool stable = same_partition(colors, next);
    colors = std::move(next);
    if (stable) return;
  }
}

/// Cells of the colour partition, ordered by colour value (a structural,
/// renaming-invariant order); members within a cell keep index order.
std::vector<std::vector<std::uint32_t>> cells_of(
    const std::vector<std::uint64_t>& colors) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_color;
  by_color.reserve(colors.size());
  for (std::uint32_t i = 0; i < colors.size(); ++i)
    by_color.emplace_back(colors[i], i);
  std::sort(by_color.begin(), by_color.end());
  std::vector<std::vector<std::uint32_t>> cells;
  for (const auto& [color, id] : by_color) {
    if (cells.empty() || colors[cells.back().front()] != color)
      cells.emplace_back();
    cells.back().push_back(id);
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Rendering under a symbol labeling.

/// `cs` relabeled by `to_new`, with members sorted within each constraint
/// (a distance-2 pair low id first) and constraints sorted within each
/// class — the unique rendering of the instance under that labeling.
ConstraintSet normalize_mapped(const ConstraintSet& cs,
                               const std::vector<std::uint32_t>& to_new) {
  ConstraintSet out = cs.relabeled(to_new);
  auto sort_all = [](auto& v) { std::sort(v.begin(), v.end()); };
  for (FaceConstraint& f : out.faces()) {
    sort_all(f.members);
    sort_all(f.dontcares);
  }
  for (DisjunctiveConstraint& d : out.disjunctives()) sort_all(d.children);
  for (ExtendedDisjunctiveConstraint& e : out.extended_disjunctives()) {
    for (auto& conj : e.conjunctions) sort_all(conj);
    sort_all(e.conjunctions);
  }
  for (Distance2Constraint& d : out.distance2s())
    if (d.a > d.b) std::swap(d.a, d.b);
  for (NonFaceConstraint& f : out.nonfaces()) sort_all(f.members);
  sort_all(out.faces());
  sort_all(out.dominances());
  sort_all(out.disjunctives());
  sort_all(out.extended_disjunctives());
  sort_all(out.distance2s());
  sort_all(out.nonfaces());
  return out;
}

void append_ids(std::string& out, const std::vector<std::uint32_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(ids[i]);
  }
}

/// Single-line key grammar (docs/FORMATS.md):
///   n<N>; then per constraint one of
///   f<ids>[|<ids>];  d<a>><b>;  j<p>=<ids>;  x<p>=<c.c|c.c>;
///   t<a>,<b>;  u<ids>;
std::string render_key(const ConstraintSet& nz, std::size_t num_symbols) {
  std::string out = "n" + std::to_string(num_symbols) + ";";
  for (const FaceConstraint& f : nz.faces()) {
    out += 'f';
    append_ids(out, f.members);
    if (!f.dontcares.empty()) {
      out += '|';
      append_ids(out, f.dontcares);
    }
    out += ';';
  }
  for (const DominanceConstraint& d : nz.dominances())
    out += 'd' + std::to_string(d.dominator) + '>' +
           std::to_string(d.dominated) + ';';
  for (const DisjunctiveConstraint& d : nz.disjunctives()) {
    out += 'j' + std::to_string(d.parent) + '=';
    append_ids(out, d.children);
    out += ';';
  }
  for (const ExtendedDisjunctiveConstraint& e : nz.extended_disjunctives()) {
    out += 'x' + std::to_string(e.parent) + '=';
    for (std::size_t ci = 0; ci < e.conjunctions.size(); ++ci) {
      if (ci) out += '|';
      for (std::size_t i = 0; i < e.conjunctions[ci].size(); ++i) {
        if (i) out += '.';
        out += std::to_string(e.conjunctions[ci][i]);
      }
    }
    out += ';';
  }
  for (const Distance2Constraint& d : nz.distance2s())
    out += 't' + std::to_string(d.a) + ',' + std::to_string(d.b) + ';';
  for (const NonFaceConstraint& f : nz.nonfaces()) {
    out += 'u';
    append_ids(out, f.members);
    out += ';';
  }
  return out;
}

std::vector<std::uint32_t> identity_mapping(std::size_t n) {
  std::vector<std::uint32_t> id(n);
  for (std::size_t i = 0; i < n; ++i) id[i] = static_cast<std::uint32_t>(i);
  return id;
}

/// True when swapping symbols a and b leaves the instance unchanged — an
/// automorphism check for one transposition.
bool transposition_is_automorphism(const ConstraintSet& cs,
                                   const std::string& identity_key,
                                   std::uint32_t a, std::uint32_t b) {
  std::vector<std::uint32_t> swap_map = identity_mapping(cs.num_symbols());
  std::swap(swap_map[a], swap_map[b]);
  return render_key(normalize_mapped(cs, swap_map), cs.num_symbols()) ==
         identity_key;
}

// ---------------------------------------------------------------------------
// Individualization-refinement search.

struct Search {
  const ConstraintSet& cs;
  std::size_t max_leaves;
  std::string identity_key;  // for transposition checks

  std::size_t leaves = 0;
  bool exact = true;
  std::string best_key;
  std::vector<std::uint32_t> best_to_canonical;
  ConstraintSet best_set;

  void run(std::vector<std::uint64_t> colors, std::uint64_t depth) {
    while (true) {
      refine_to_fixpoint(cs, colors);
      const auto cells = cells_of(colors);
      const auto target = std::find_if(
          cells.begin(), cells.end(),
          [](const std::vector<std::uint32_t>& c) { return c.size() > 1; });
      if (target == cells.end()) {
        leaf(cells);
        return;
      }
      // Transpositions (c0 ci) generate the full symmetric group on the
      // cell, so if every one is an automorphism all orderings of the cell
      // yield the same key — fix an arbitrary order instead of branching.
      bool interchangeable = true;
      for (std::size_t i = 1; i < target->size() && interchangeable; ++i)
        interchangeable = transposition_is_automorphism(
            cs, identity_key, (*target)[0], (*target)[i]);
      if (interchangeable) {
        for (std::size_t i = 0; i < target->size(); ++i)
          colors[(*target)[i]] = Mix()
                                     .add(kTagIndividualize)
                                     .add(colors[(*target)[i]])
                                     .add(depth)
                                     .add(i)
                                     .h;
        ++depth;
        continue;
      }
      // Branch on every member of the first non-singleton cell. Exploring
      // all of them keeps the min-key renaming-invariant; stopping early at
      // the leaf budget loses that guarantee, so flag inexact.
      for (std::uint32_t member : *target) {
        if (leaves >= max_leaves) {
          exact = false;
          return;
        }
        std::vector<std::uint64_t> branch = colors;
        branch[member] =
            Mix().add(kTagIndividualize).add(branch[member]).add(depth).h;
        run(std::move(branch), depth + 1);
      }
      return;
    }
  }

  void leaf(const std::vector<std::vector<std::uint32_t>>& cells) {
    ++leaves;
    std::vector<std::uint32_t> to_canonical(cs.num_symbols());
    std::uint32_t rank = 0;
    for (const auto& cell : cells)
      for (std::uint32_t id : cell) to_canonical[id] = rank++;
    ConstraintSet set = normalize_mapped(cs, to_canonical);
    std::string key = render_key(set, cs.num_symbols());
    if (best_key.empty() || key < best_key) {
      best_key = std::move(key);
      best_to_canonical = std::move(to_canonical);
      best_set = std::move(set);
    }
  }
};

}  // namespace

ConstraintSet apply_symbol_permutation(
    const ConstraintSet& cs, const std::vector<std::uint32_t>& to_new) {
  std::vector<std::string> names(cs.num_symbols());
  for (std::uint32_t i = 0; i < names.size(); ++i)
    names[to_new[i]] = cs.symbols().name(i);
  ConstraintSet out = cs.relabeled(to_new);
  for (const std::string& name : names) out.symbols().intern(name);
  return out;
}

Canonicalization canonicalize(const ConstraintSet& cs,
                              std::size_t max_leaves) {
  const std::size_t n = cs.num_symbols();
  Canonicalization result;

  Search search{cs, std::max<std::size_t>(max_leaves, 1),
                render_key(normalize_mapped(cs, identity_mapping(n)), n),
                /*leaves=*/0, /*exact=*/true, /*best_key=*/{},
                /*best_to_canonical=*/{}, /*best_set=*/{}};
  search.run(std::vector<std::uint64_t>(n, 0), /*depth=*/0);

  SymbolPermutation& perm = result.perm;
  perm.to_canonical = std::move(search.best_to_canonical);
  perm.from_canonical.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    perm.from_canonical[perm.to_canonical[i]] = static_cast<std::uint32_t>(i);

  CanonicalSet& canon = result.canon;
  canon.exact = search.exact;
  canon.key = std::move(search.best_key);

  // The canonical instance: the best leaf's constraints, in the exact
  // order the key renders them, over symbols v0..v{n-1}.
  canon.set = std::move(search.best_set);
  for (std::size_t i = 0; i < n; ++i)
    canon.set.symbols().intern("v" + std::to_string(i));
  return result;
}

}  // namespace encodesat
