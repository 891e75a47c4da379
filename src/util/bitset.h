// Dynamic fixed-universe bitset used throughout the encoding framework.
//
// Dichotomy blocks, prime-generation SOP terms, covering-table rows and
// multi-valued cube parts are all sets over a small dense universe, so one
// word-packed bitset with set-algebra operations serves every subsystem.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace encodesat {

/// A set over the universe {0, ..., size()-1}, packed 64 elements per word.
///
/// All binary operations require both operands to have the same universe
/// size; a mismatch throws std::invalid_argument in every build mode (a
/// mismatched universe is always a caller bug, and the word loops would
/// otherwise silently truncate). The value semantics are cheap
/// enough for the problem sizes in this domain (tens to a few thousand
/// elements), which keeps the algorithm code free of aliasing concerns.
///
/// Universes of up to kInlineBits elements live in two words inside the
/// object, so the cubes of most covers never touch the heap; larger ones
/// own a heap array. A moved-from heap bitset is left as the empty set
/// over the empty universe.
class Bitset {
 public:
  static constexpr std::size_t kInlineBits = 128;

  Bitset() = default;
  explicit Bitset(std::size_t size) : size_(size) {
    if (on_heap()) heap_ = new std::uint64_t[num_words()]();
  }
  Bitset(const Bitset& o) : size_(o.size_) {
    if (on_heap()) {
      heap_ = heap_copy(o.heap_, num_words());
    } else {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    }
  }
  Bitset(Bitset&& o) noexcept : size_(o.size_) { steal(o); }
  Bitset& operator=(const Bitset& o);
  Bitset& operator=(Bitset&& o) noexcept;
  ~Bitset() {
    if (on_heap()) delete[] heap_;
  }

  /// Universe size (number of addressable positions), not the popcount.
  std::size_t size() const { return size_; }

  /// Word access for kernels: num_words() words, element i at bit i & 63
  /// of word i >> 6. Bits at or past size() in the last word are always
  /// zero, and a writer must keep them so.
  std::size_t num_words() const { return (size_ + 63) >> 6; }
  const std::uint64_t* words() const { return on_heap() ? heap_ : inline_; }
  std::uint64_t* words() { return on_heap() ? heap_ : inline_; }

  bool test(std::size_t i) const {
    return (words()[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words()[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) {
    words()[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool v) { v ? set(i) : reset(i); }

  void clear();
  void set_all();

  /// Number of elements present.
  std::size_t count() const;
  bool empty() const;
  bool any() const { return !empty(); }

  /// Index of the lowest set bit, or size() if empty.
  std::size_t first() const;
  /// Index of the lowest set bit strictly greater than i, or size() if none.
  std::size_t next(std::size_t i) const;

  Bitset& operator|=(const Bitset& o);
  Bitset& operator&=(const Bitset& o);
  Bitset& operator^=(const Bitset& o);
  /// Set difference: removes every element of o from this set.
  Bitset& subtract(const Bitset& o);

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator^(Bitset a, const Bitset& b) { return a ^= b; }

  bool operator==(const Bitset& o) const;
  bool operator!=(const Bitset& o) const { return !(*this == o); }
  /// Lexicographic order on the word representation; used for canonical
  /// sorting and dedup of dichotomies and SOP terms.
  bool operator<(const Bitset& o) const;

  /// True if this set is a subset of (or equal to) o.
  bool is_subset_of(const Bitset& o) const;
  bool intersects(const Bitset& o) const;

  /// Calls f(i) for each element i in increasing order.
  void for_each(const std::function<void(std::size_t)>& f) const;
  std::vector<std::size_t> to_vector() const;

  /// "{1,4,7}" rendering for diagnostics.
  std::string to_string() const;

  std::size_t hash() const;

 private:
  bool on_heap() const { return size_ > kInlineBits; }
  static std::uint64_t* heap_copy(const std::uint64_t* src, std::size_t n);
  // Takes o's storage; size_ must already equal o's. A heap source is
  // left as the empty set over the empty universe.
  void steal(Bitset& o) {
    if (on_heap()) {
      heap_ = o.heap_;
      o.size_ = 0;
      o.inline_[0] = o.inline_[1] = 0;
    } else {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    }
  }

  std::size_t size_ = 0;
  // inline_ while size_ <= kInlineBits (both words zero past num_words()),
  // heap_ otherwise.
  union {
    std::uint64_t inline_[kInlineBits / 64] = {0, 0};
    std::uint64_t* heap_;
  };
};

struct BitsetHash {
  std::size_t operator()(const Bitset& b) const { return b.hash(); }
};

}  // namespace encodesat
