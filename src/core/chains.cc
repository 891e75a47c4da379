#include "core/chains.h"

#include <algorithm>
#include <stdexcept>

#include "core/verify.h"

namespace encodesat {

bool chains_satisfied(const Encoding& enc,
                      const std::vector<ChainConstraint>& chains) {
  const std::uint64_t mask = enc.bits >= 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << enc.bits) - 1;
  for (const auto& chain : chains)
    for (std::size_t i = 0; i + 1 < chain.sequence.size(); ++i)
      if (((enc.codes[chain.sequence[i]] + 1) & mask) !=
          enc.codes[chain.sequence[i + 1]])
        return false;
  return true;
}

namespace {

// A placement group: either a whole chain (codes consecutive from a base)
// or a single free symbol (a 1-chain).
struct Group {
  std::vector<std::uint32_t> symbols;
};

struct Search {
  const ConstraintSet& cs;
  const ChainEncodeOptions& opts;
  int bits;
  std::uint64_t space;
  std::uint64_t mask;
  std::vector<Group> groups;

  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  bool found = false;
  Encoding enc;
  std::vector<bool> assigned;
  std::vector<bool> used;

  bool face_prune_ok() const {
    // Prune on every face constraint whose members are all assigned: the
    // span is then fixed, and an assigned outsider (not a don't-care)
    // inside it can never be moved out again.
    const std::size_t n = cs.num_symbols();
    for (const auto& f : cs.faces()) {
      bool all_members = true;
      for (auto m : f.members)
        if (!assigned[m]) {
          all_members = false;
          break;
        }
      if (!all_members) continue;
      std::uint64_t fixed = mask, ref = enc.codes[f.members[0]];
      for (auto m : f.members) fixed &= ~(enc.codes[m] ^ ref);
      const std::uint64_t value = ref & fixed;
      const Bitset inside =
          index_bitset(n, f.members) | index_bitset(n, f.dontcares);
      for (std::uint32_t s = 0; s < n; ++s) {
        if (!assigned[s] || inside.test(s)) continue;
        if ((enc.codes[s] & fixed) == value) return false;
      }
    }
    return true;
  }

  void solve(std::size_t gi) {
    if (budget_exhausted || found) return;
    if (++nodes > opts.max_nodes) {
      budget_exhausted = true;
      return;
    }
    if (gi == groups.size()) {
      // All placed: full verification (faces already pruned; recheck all
      // constraint classes to be safe).
      if (verify_encoding(enc, cs).empty()) found = true;
      return;
    }
    const Group& g = groups[gi];
    for (std::uint64_t base = 0; base < space && !found; ++base) {
      // Place the group's symbols at consecutive codes.
      bool ok = true;
      for (std::size_t i = 0; i < g.symbols.size(); ++i)
        if (used[(base + i) & mask]) {
          ok = false;
          break;
        }
      if (!ok) continue;
      for (std::size_t i = 0; i < g.symbols.size(); ++i) {
        const std::uint64_t code = (base + i) & mask;
        enc.codes[g.symbols[i]] = code;
        used[code] = true;
        assigned[g.symbols[i]] = true;
      }
      if (face_prune_ok()) solve(gi + 1);
      if (!found) {
        for (std::size_t i = 0; i < g.symbols.size(); ++i) {
          const std::uint64_t code = (base + i) & mask;
          used[code] = false;
          assigned[g.symbols[i]] = false;
        }
      }
    }
  }
};

}  // namespace

ChainEncodeResult encode_with_chains(const ConstraintSet& cs,
                                     const std::vector<ChainConstraint>& chains,
                                     int bits,
                                     const ChainEncodeOptions& opts) {
  const std::uint32_t n = cs.num_symbols();
  if (bits < 1 || bits > 24)
    throw std::invalid_argument("chain encoding supports 1..24 bits");
  const std::uint64_t space = std::uint64_t{1} << bits;
  if (space < n)
    throw std::invalid_argument("code space smaller than symbol count");

  std::vector<bool> chained(n, false);
  Search search{cs, opts, bits, space, space - 1, {}, 0, false, false,
                Encoding{}, {}, {}};
  for (const auto& chain : chains) {
    if (chain.sequence.empty())
      throw std::invalid_argument("empty chain constraint");
    Group g;
    for (auto s : chain.sequence) {
      if (s >= n) throw std::invalid_argument("chain symbol out of range");
      if (chained[s])
        throw std::invalid_argument("symbol appears in two chains");
      chained[s] = true;
      g.symbols.push_back(s);
    }
    search.groups.push_back(std::move(g));
  }
  for (std::uint32_t s = 0; s < n; ++s)
    if (!chained[s]) search.groups.push_back(Group{{s}});
  // Longest groups first: they are the hardest to place.
  std::stable_sort(search.groups.begin(), search.groups.end(),
                   [](const Group& a, const Group& b) {
                     return a.symbols.size() > b.symbols.size();
                   });

  search.enc.bits = bits;
  search.enc.codes.assign(n, 0);
  search.assigned.assign(n, false);
  search.used.assign(space, false);
  search.solve(0);

  ChainEncodeResult res;
  res.nodes_explored = search.nodes;
  if (search.found) {
    res.status = ChainEncodeResult::Status::kEncoded;
    res.encoding = search.enc;
  } else if (search.budget_exhausted) {
    res.status = ChainEncodeResult::Status::kBudget;
  }
  return res;
}

}  // namespace encodesat
