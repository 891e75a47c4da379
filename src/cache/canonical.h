// Canonical form for ConstraintSet: a deterministic, symbol-renaming-
// invariant normalization that lets structurally identical instances share
// one solve-cache entry (src/cache/solve_cache.h).
//
// Two constraint sets that differ only in symbol names, symbol interning
// order, or constraint order produce the same CanonicalSet: symbols are
// relabeled to dense canonical indices by a colour-refinement search
// (Weisfeiler–Lehman refinement plus individualization, minimizing the
// rendered key over the explored labelings), constraints are rewritten in
// canonical member order and sorted per class, and the result is rendered
// as a single-line `key`.
//
// Soundness vs completeness: the key retains the full structure, so equal
// keys always mean isomorphic instances — a cache that compares keys on
// lookup can never return the wrong result. Completeness (isomorphic
// instances always map to the same key) holds whenever the refinement
// search finishes within its leaf budget; on highly symmetric instances
// that exceed it, canonicalize() falls back to a deterministic but
// order-dependent labeling and reports `exact = false` (a cache miss, not
// a wrong answer). §8.1 don't-cares participate in the refinement as their
// own role, so member/don't-care swaps never collide.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/constraints.h"

namespace encodesat {

/// The bijection between original and canonical symbol indices; results
/// computed in canonical space map back through `from_canonical`.
struct SymbolPermutation {
  std::vector<std::uint32_t> to_canonical;    ///< original id -> canonical id
  std::vector<std::uint32_t> from_canonical;  ///< canonical id -> original id
};

struct CanonicalSet {
  /// The relabeled instance: symbol i is named "v<i>", constraints are in
  /// canonical member order and sorted per class. Solving this instance
  /// and permuting the codes through SymbolPermutation gives a valid
  /// result for the original instance.
  ConstraintSet set;
  /// Single-line canonical rendering — the cache key material. Equal keys
  /// mean isomorphic instances (and vice versa when `exact`).
  std::string key;
  /// True when the refinement search ran to completion, making the key
  /// invariant under any symbol renaming. False after a leaf-budget
  /// fallback: the key is still deterministic for this in-memory instance,
  /// just not guaranteed to match a differently-ordered rendering.
  bool exact = true;
};

struct Canonicalization {
  CanonicalSet canon;
  SymbolPermutation perm;
};

/// Canonicalizes `cs`. `max_leaves` bounds the individualization search
/// (the number of complete labelings rendered and compared); beyond it the
/// result is flagged `exact = false`.
Canonicalization canonicalize(const ConstraintSet& cs,
                              std::size_t max_leaves = 4096);

/// Rebuilds `cs` with symbol `i` moved to index `to_new[i]` (names travel
/// with their symbols). `to_new` must be a permutation of 0..n-1. Used by
/// tests and the fuzzer's `cache` agreement rule to manufacture renamed
/// copies of an instance.
ConstraintSet apply_symbol_permutation(const ConstraintSet& cs,
                                       const std::vector<std::uint32_t>& to_new);

}  // namespace encodesat
