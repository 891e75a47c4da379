#include "util/bitset.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <string>

namespace encodesat {

namespace {
// Mask selecting only the bits that belong to the universe in the last word.
std::uint64_t tail_mask(std::size_t size) {
  const std::size_t rem = size & 63;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

// Binary set operations are only meaningful over a shared universe; a
// mismatch is always a caller bug, so it throws in every build mode (the
// word loops below would otherwise silently truncate or read out of range).
// Kept out of line and cold so the callers — some sit in O(n²) loops —
// pay only a predictable compare on the match path.
[[gnu::cold, gnu::noinline]] void throw_universe_mismatch(std::size_t a,
                                                          std::size_t b,
                                                          const char* op) {
  throw std::invalid_argument(std::string("Bitset::") + op +
                              ": universe mismatch (" + std::to_string(a) +
                              " vs " + std::to_string(b) + ")");
}

inline void check_same_universe(std::size_t a, std::size_t b, const char* op) {
  if (a != b) throw_universe_mismatch(a, b, op);
}

// a[k] = op(a[k], b[k]) for the n words. n is passed in, not re-read: a
// store through a (std::uint64_t*) may alias size_ (a std::size_t) as far
// as the compiler knows, which would reload it every word.
template <class Op>
void combine(std::uint64_t* a, const std::uint64_t* b, std::size_t n, Op op) {
  for (std::size_t k = 0; k < n; ++k) a[k] = op(a[k], b[k]);
}
}  // namespace

std::uint64_t* Bitset::heap_copy(const std::uint64_t* src, std::size_t n) {
  std::uint64_t* w = new std::uint64_t[n];
  std::copy(src, src + n, w);
  return w;
}

Bitset& Bitset::operator=(const Bitset& o) {
  if (this == &o) return *this;
  if (o.on_heap()) {
    const std::size_t n = o.num_words();
    if (on_heap() && num_words() == n) {
      std::copy(o.heap_, o.heap_ + n, heap_);
    } else {
      std::uint64_t* fresh = heap_copy(o.heap_, n);
      if (on_heap()) delete[] heap_;
      heap_ = fresh;
    }
  } else {
    if (on_heap()) delete[] heap_;
    inline_[0] = o.inline_[0];
    inline_[1] = o.inline_[1];
  }
  size_ = o.size_;
  return *this;
}

Bitset& Bitset::operator=(Bitset&& o) noexcept {
  if (this == &o) return *this;
  if (on_heap()) delete[] heap_;
  size_ = o.size_;
  steal(o);
  return *this;
}

void Bitset::clear() {
  std::fill_n(words(), num_words(), 0);
}

void Bitset::set_all() {
  const std::size_t n = num_words();
  if (n == 0) return;
  std::uint64_t* w = words();
  std::fill_n(w, n, ~std::uint64_t{0});
  w[n - 1] &= tail_mask(size_);
}

std::size_t Bitset::count() const {
  const std::uint64_t* w = words();
  std::size_t n = 0;
  for (std::size_t k = 0; k < num_words(); ++k)
    n += static_cast<std::size_t>(std::popcount(w[k]));
  return n;
}

bool Bitset::empty() const {
  const std::uint64_t* w = words();
  for (std::size_t k = 0; k < num_words(); ++k)
    if (w[k] != 0) return false;
  return true;
}

std::size_t Bitset::first() const {
  const std::uint64_t* w = words();
  for (std::size_t k = 0; k < num_words(); ++k)
    if (w[k] != 0)
      return k * 64 + static_cast<std::size_t>(std::countr_zero(w[k]));
  return size_;
}

std::size_t Bitset::next(std::size_t i) const {
  ++i;
  if (i >= size_) return size_;
  const std::uint64_t* ws = words();
  std::size_t k = i >> 6;
  std::uint64_t w = ws[k] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (w != 0) return k * 64 + static_cast<std::size_t>(std::countr_zero(w));
    if (++k == num_words()) return size_;
    w = ws[k];
  }
}

Bitset& Bitset::operator|=(const Bitset& o) {
  check_same_universe(size_, o.size_, "operator|=");
  combine(words(), o.words(), num_words(), std::bit_or<>());
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& o) {
  check_same_universe(size_, o.size_, "operator&=");
  combine(words(), o.words(), num_words(), std::bit_and<>());
  return *this;
}

Bitset& Bitset::operator^=(const Bitset& o) {
  check_same_universe(size_, o.size_, "operator^=");
  combine(words(), o.words(), num_words(), std::bit_xor<>());
  return *this;
}

Bitset& Bitset::subtract(const Bitset& o) {
  check_same_universe(size_, o.size_, "subtract");
  combine(words(), o.words(), num_words(),
          [](std::uint64_t a, std::uint64_t b) { return a & ~b; });
  return *this;
}

bool Bitset::operator==(const Bitset& o) const {
  return size_ == o.size_ &&
         std::equal(words(), words() + num_words(), o.words());
}

bool Bitset::operator<(const Bitset& o) const {
  if (size_ != o.size_) return size_ < o.size_;
  const std::uint64_t* a = words();
  const std::uint64_t* b = o.words();
  for (std::size_t k = num_words(); k-- > 0;)
    if (a[k] != b[k]) return a[k] < b[k];
  return false;
}

bool Bitset::is_subset_of(const Bitset& o) const {
  check_same_universe(size_, o.size_, "is_subset_of");
  const std::uint64_t* a = words();
  const std::uint64_t* b = o.words();
  for (std::size_t k = 0; k < num_words(); ++k)
    if ((a[k] & ~b[k]) != 0) return false;
  return true;
}

bool Bitset::intersects(const Bitset& o) const {
  check_same_universe(size_, o.size_, "intersects");
  const std::uint64_t* a = words();
  const std::uint64_t* b = o.words();
  for (std::size_t k = 0; k < num_words(); ++k)
    if ((a[k] & b[k]) != 0) return true;
  return false;
}

void Bitset::for_each(const std::function<void(std::size_t)>& f) const {
  const std::uint64_t* ws = words();
  for (std::size_t k = 0; k < num_words(); ++k) {
    std::uint64_t w = ws[k];
    while (w != 0) {
      const int b = std::countr_zero(w);
      f(k * 64 + static_cast<std::size_t>(b));
      w &= w - 1;
    }
  }
}

std::vector<std::size_t> Bitset::to_vector() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::string Bitset::to_string() const {
  std::string s = "{";
  bool firstItem = true;
  for_each([&](std::size_t i) {
    if (!firstItem) s += ',';
    s += std::to_string(i);
    firstItem = false;
  });
  s += '}';
  return s;
}

std::size_t Bitset::hash() const {
  // FNV-1a over words; adequate for hash-set dedup of terms/dichotomies.
  std::size_t h = 1469598103934665603ull;
  const std::uint64_t* w = words();
  for (std::size_t k = 0; k < num_words(); ++k) {
    h ^= static_cast<std::size_t>(w[k]);
    h *= 1099511628211ull;
  }
  h ^= size_;
  return h;
}

}  // namespace encodesat
