// Arena-backed flat term store for the SOP/covering hot paths.
//
// The cs/ps fold of prime generation and the unate-covering row operations
// manipulate hundreds of thousands of short bit-vectors over one fixed
// universe. Backing each one with a heap-allocated Bitset makes the fold
// allocation-bound; a TermArena instead packs every term into one
// contiguous std::uint64_t buffer at a fixed stride (words-per-term), so
//
//  * alloc/release are O(1): a bump append or a free-list pop, with no
//    per-term heap allocation (the single buffer grows geometrically);
//  * set operations are straight word loops over adjacent memory;
//  * a term is named by a TermRef (32-bit index), cheap to copy and store.
//
// The arena also provides the folded 64-bit *signature*, sig(t) = OR of
// all words of t, i.e. bit j of the signature is set iff t contains some
// element ≡ j (mod 64). The prime fold (core/primes.cc) sorts terms by it;
// since a ⊆ b implies sig(a) & ~sig(b) == 0, it can also reject a subset
// test in one word comparison.
//
// TermArena is a single-thread data structure; the pipeline's determinism
// contract is unaffected because each arena lives entirely inside one
// sequential stage (the fold) or one branch-and-bound component.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bitset.h"

namespace encodesat {

/// Index of a term slot inside a TermArena.
using TermRef = std::uint32_t;

class TermArena {
 public:
  /// `universe` is the fixed element universe {0, ..., universe-1} of every
  /// term; `reserve_terms` pre-sizes the buffer to avoid growth in a loop
  /// whose final size is known (or bounded) up front.
  explicit TermArena(std::size_t universe, std::size_t reserve_terms = 0)
      : universe_(universe), words_(universe == 0 ? 1 : (universe + 63) / 64) {
    buf_.reserve(words_ * reserve_terms);
  }

  std::size_t universe() const { return universe_; }
  /// Words per term (the fixed stride).
  std::size_t words() const { return words_; }

  /// Allocates a zeroed term: free-list pop, else bump append.
  TermRef alloc() {
    const TermRef t = take_slot();
    std::memset(data(t), 0, words_ * sizeof(std::uint64_t));
    return t;
  }

  /// Allocates a copy of `src`.
  TermRef clone(TermRef src) {
    const TermRef t = take_slot();
    copy(t, src);
    return t;
  }

  /// Allocates a term holding a & ~b, counted as alloc() counts; the slot
  /// is written once, with no zeroing first.
  TermRef alloc_andnot(TermRef a, TermRef b) {
    const TermRef t = take_slot();
    andnot_of(t, a, b);
    return t;
  }

  /// Returns the slot to the free list for O(1) reuse.
  void release(TermRef t) {
    free_.push_back(t);
    --live_;
  }

  std::uint64_t* data(TermRef t) { return &buf_[idx(t)]; }
  const std::uint64_t* data(TermRef t) const { return &buf_[idx(t)]; }

  // --- element operations --------------------------------------------------

  bool test(TermRef t, std::size_t i) const {
    return (buf_[idx(t) + (i >> 6)] >> (i & 63)) & 1u;
  }
  void set(TermRef t, std::size_t i) {
    buf_[idx(t) + (i >> 6)] |= std::uint64_t{1} << (i & 63);
  }
  void reset(TermRef t, std::size_t i) {
    buf_[idx(t) + (i >> 6)] &= ~(std::uint64_t{1} << (i & 63));
  }

  std::size_t count(TermRef t) const {
    const std::uint64_t* w = data(t);
    std::size_t n = 0;
    for (std::size_t k = 0; k < words_; ++k)
      n += static_cast<std::size_t>(std::popcount(w[k]));
    return n;
  }

  bool empty(TermRef t) const {
    const std::uint64_t* w = data(t);
    for (std::size_t k = 0; k < words_; ++k)
      if (w[k] != 0) return false;
    return true;
  }

  /// Index of the lowest element, or universe() if empty.
  std::size_t first(TermRef t) const {
    const std::uint64_t* w = data(t);
    for (std::size_t k = 0; k < words_; ++k)
      if (w[k] != 0)
        return k * 64 + static_cast<std::size_t>(std::countr_zero(w[k]));
    return universe_;
  }

  /// Calls f(i) for each element i of t in increasing order.
  template <class F>
  void for_each(TermRef t, F&& f) const {
    const std::uint64_t* wp = data(t);
    for (std::size_t k = 0; k < words_; ++k) {
      std::uint64_t w = wp[k];
      while (w != 0) {
        f(k * 64 + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

  // --- word-level set operations -------------------------------------------

  void copy(TermRef dst, TermRef src) {
    std::memcpy(&buf_[idx(dst)], &buf_[idx(src)],
                words_ * sizeof(std::uint64_t));
  }
  void or_into(TermRef dst, TermRef src) {
    std::uint64_t* d = data(dst);
    const std::uint64_t* s = data(src);
    for (std::size_t k = 0; k < words_; ++k) d[k] |= s[k];
  }
  /// dst = a & ~b (the covering-table "available columns" operation).
  void andnot_of(TermRef dst, TermRef a, TermRef b) {
    std::uint64_t* d = data(dst);
    const std::uint64_t* x = data(a);
    const std::uint64_t* y = data(b);
    for (std::size_t k = 0; k < words_; ++k) d[k] = x[k] & ~y[k];
  }

  bool is_subset(TermRef a, TermRef b) const {
    const std::uint64_t* x = data(a);
    const std::uint64_t* y = data(b);
    for (std::size_t k = 0; k < words_; ++k)
      if ((x[k] & ~y[k]) != 0) return false;
    return true;
  }
  bool intersects(TermRef a, TermRef b) const {
    const std::uint64_t* x = data(a);
    const std::uint64_t* y = data(b);
    for (std::size_t k = 0; k < words_; ++k)
      if ((x[k] & y[k]) != 0) return true;
    return false;
  }
  bool equal(TermRef a, TermRef b) const {
    return std::memcmp(data(a), data(b),
                       words_ * sizeof(std::uint64_t)) == 0;
  }
  /// Word-lexicographic order (most-significant word first), matching
  /// Bitset::operator< — used for canonical sorting and adjacent dedup.
  bool less(TermRef a, TermRef b) const {
    const std::uint64_t* x = data(a);
    const std::uint64_t* y = data(b);
    for (std::size_t k = words_; k-- > 0;)
      if (x[k] != y[k]) return x[k] < y[k];
    return false;
  }

  /// Folded containment signature: bit j set iff the term contains an
  /// element ≡ j (mod 64). a ⊆ b implies sig(a) & ~sig(b) == 0.
  std::uint64_t signature(TermRef t) const {
    const std::uint64_t* w = data(t);
    std::uint64_t s = 0;
    for (std::size_t k = 0; k < words_; ++k) s |= w[k];
    return s;
  }

  // --- Bitset conversion shims ---------------------------------------------

  /// `b.size()` must equal universe().
  TermRef from_bitset(const Bitset& b) {
    assert(b.size() == universe_);
    const TermRef t = alloc();
    std::uint64_t* d = data(t);
    b.for_each(
        [&](std::size_t i) { d[i >> 6] |= std::uint64_t{1} << (i & 63); });
    return t;
  }

  Bitset to_bitset(TermRef t) const {
    Bitset b(universe_);
    for_each(t, [&](std::size_t i) { b.set(i); });
    return b;
  }

  // --- observability -------------------------------------------------------

  /// Terms currently allocated (not on the free list).
  std::size_t live_terms() const { return live_; }
  /// Total slots ever created; the buffer never shrinks, so this is also the
  /// high-water mark.
  std::size_t capacity_terms() const { return buf_.size() / words_; }
  /// Peak buffer footprint in bytes (the buffer only grows).
  std::size_t peak_bytes() const { return buf_.size() * sizeof(std::uint64_t); }
  /// Fresh slot creations (bump appends that grew the buffer).
  std::uint64_t total_allocs() const { return allocs_; }
  /// Allocations satisfied from the free list without touching the heap —
  /// the number the arena design exists to maximize.
  std::uint64_t total_reuses() const { return reuses_; }

 private:
  std::size_t idx(TermRef t) const { return std::size_t{t} * words_; }

  // A free-list pop (its words stale), else a bump append. Callers read
  // other terms through their refs afterwards: the append may move buf_.
  TermRef take_slot() {
    ++live_;
    if (!free_.empty()) {
      const TermRef t = free_.back();
      free_.pop_back();
      ++reuses_;
      return t;
    }
    const TermRef t = static_cast<TermRef>(buf_.size() / words_);
    buf_.resize(buf_.size() + words_);
    ++allocs_;
    return t;
  }

  std::size_t universe_;
  std::size_t words_;
  std::size_t live_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t reuses_ = 0;
  std::vector<std::uint64_t> buf_;
  std::vector<TermRef> free_;
};

/// RAII batch release: tracks refs allocated for one scope (one search node,
/// one fold) and returns them to the arena on scope exit, covering early
/// returns in recursive code.
class TermGuard {
 public:
  explicit TermGuard(TermArena& arena) : arena_(arena) {}
  TermGuard(const TermGuard&) = delete;
  TermGuard& operator=(const TermGuard&) = delete;
  ~TermGuard() {
    for (TermRef t : refs_) arena_.release(t);
  }

  /// Registers `t` for release when this guard leaves scope.
  TermRef track(TermRef t) {
    refs_.push_back(t);
    return t;
  }

 private:
  TermArena& arena_;
  std::vector<TermRef> refs_;
};

}  // namespace encodesat
