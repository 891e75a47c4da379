#include "util/bitset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace encodesat {
namespace {

TEST(Bitset, StartsEmpty) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.first(), 130u);
}

TEST(Bitset, SetResetTest) {
  Bitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, SetAllRespectsTail) {
  Bitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  Bitset c(64);
  c.set_all();
  EXPECT_EQ(c.count(), 64u);
}

TEST(Bitset, FirstNextIterate) {
  Bitset b(200);
  const std::set<std::size_t> expected = {3, 64, 65, 127, 128, 199};
  for (auto i : expected) b.set(i);
  std::set<std::size_t> seen;
  for (std::size_t i = b.first(); i < b.size(); i = b.next(i)) seen.insert(i);
  EXPECT_EQ(seen, expected);
}

TEST(Bitset, ForEachMatchesToVector) {
  Bitset b(90);
  b.set(1);
  b.set(89);
  b.set(42);
  std::vector<std::size_t> v;
  b.for_each([&](std::size_t i) { v.push_back(i); });
  EXPECT_EQ(v, b.to_vector());
  EXPECT_EQ(v, (std::vector<std::size_t>{1, 42, 89}));
}

TEST(Bitset, BooleanOps) {
  Bitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  EXPECT_EQ((a & b).to_vector(), (std::vector<std::size_t>{65}));
  EXPECT_EQ((a | b).to_vector(), (std::vector<std::size_t>{1, 2, 65}));
  EXPECT_EQ((a ^ b).to_vector(), (std::vector<std::size_t>{1, 2}));
  Bitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.to_vector(), (std::vector<std::size_t>{1}));
}

TEST(Bitset, SubsetAndIntersects) {
  Bitset a(70), b(70);
  a.set(5);
  b.set(5);
  b.set(66);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  Bitset c(70);
  c.set(7);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(Bitset(70).is_subset_of(a));
}

TEST(Bitset, EqualityAndOrdering) {
  Bitset a(10), b(10);
  EXPECT_EQ(a, b);
  a.set(3);
  EXPECT_NE(a, b);
  EXPECT_TRUE(b < a);
  b.set(4);
  EXPECT_TRUE(a < b);
}

TEST(Bitset, ToString) {
  Bitset a(10);
  a.set(1);
  a.set(4);
  EXPECT_EQ(a.to_string(), "{1,4}");
  EXPECT_EQ(Bitset(3).to_string(), "{}");
}

TEST(Bitset, HashDiffersForDifferentSets) {
  Bitset a(64), b(64);
  a.set(0);
  b.set(1);
  EXPECT_NE(a.hash(), b.hash());
  Bitset c = a;
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(Bitset, MismatchedUniverseBinaryOpsThrow) {
  // Every binary set operation hard-errors on a universe mismatch in all
  // build modes, not just under debug asserts (see util/bitset.h).
  Bitset a(10), b(11);
  a.set(3);
  b.set(3);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW(a ^= b, std::invalid_argument);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
  EXPECT_THROW((void)a.intersects(b), std::invalid_argument);
  EXPECT_THROW((void)(a | b), std::invalid_argument);
  EXPECT_THROW((void)(a & b), std::invalid_argument);
  EXPECT_THROW((void)(a ^ b), std::invalid_argument);
  // The failed operation must not corrupt the left operand.
  EXPECT_EQ(a.to_string(), "{3}");
  EXPECT_EQ(a.size(), 10u);
  // Word-count-equal but size-unequal universes still throw (the same word
  // loop would otherwise "work" silently).
  Bitset c(64), d(65);
  EXPECT_THROW(c |= d, std::invalid_argument);
  // Matching universes keep working after a failed attempt.
  Bitset e(10);
  e.set(4);
  a |= e;
  EXPECT_EQ(a.to_string(), "{3,4}");
}


// Reference words of a set, built from its element list alone.
std::vector<std::uint64_t> reference_words(const Bitset& b) {
  std::vector<std::uint64_t> w((b.size() + 63) / 64, 0);
  for (std::size_t i : b.to_vector()) w[i / 64] |= std::uint64_t{1} << (i % 64);
  return w;
}

Bitset random_bitset(std::size_t n, Rng& rng) {
  Bitset b(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rng.next_bool(0.3)) b.set(i);
  return b;
}

// Sizes on both sides of the inline/heap boundary (Bitset::kInlineBits)
// and of every word boundary below it.
TEST(Bitset, InlineHeapBoundary) {
  const std::vector<std::size_t> sizes = {0,   1,   63,  64,  65,
                                          127, 128, 129, 1000};
  Rng rng(15);
  for (const std::size_t n : sizes) {
    SCOPED_TRACE(n);
    const Bitset a = random_bitset(n, rng);
    const std::vector<std::size_t> elems = a.to_vector();

    // Copy and move construction; a copy is independent of its source.
    Bitset copy(a);
    EXPECT_EQ(copy, a);
    if (n > 0) {
      copy.assign(n - 1, !copy.test(n - 1));
      EXPECT_NE(copy, a);
      EXPECT_EQ(a.to_vector(), elems);
    }
    Bitset source(a);
    const Bitset moved(std::move(source));
    EXPECT_EQ(moved, a);
    source = a;  // a moved-from set takes a new value
    EXPECT_EQ(source, a);

    // Copy and move assignment onto every size, inline and heap alike.
    for (const std::size_t k : sizes) {
      Bitset dst = random_bitset(k, rng);
      dst = a;
      EXPECT_EQ(dst, a);
      EXPECT_EQ(dst.size(), n);
      Bitset dst2 = random_bitset(k, rng);
      Bitset src(a);
      dst2 = std::move(src);
      EXPECT_EQ(dst2, a);
      src = random_bitset(k, rng);
      EXPECT_EQ(src.size(), k);
      // The assigned set works on its own storage.
      if (n > 0) {
        dst.set(0);
        dst2.reset(0);
        EXPECT_EQ(a.to_vector(), elems);
      }
    }

    // Self-assignment, through references so no warning fires.
    Bitset self = a;
    const Bitset& alias = self;
    self = alias;
    EXPECT_EQ(self, a);
    Bitset& alias2 = self;
    self = std::move(alias2);
    EXPECT_EQ(self.to_vector(), elems);

    // ==, < and hash() against the word-level definitions.
    const Bitset b = random_bitset(n, rng);
    const auto wa = reference_words(a), wb = reference_words(b);
    EXPECT_EQ(a == b, wa == wb);
    EXPECT_EQ(a == a, true);
    bool less = false;
    for (std::size_t k = wa.size(); k-- > 0;)
      if (wa[k] != wb[k]) {
        less = wa[k] < wb[k];
        break;
      }
    EXPECT_EQ(a < b, less);
    EXPECT_FALSE(a < a);
    std::size_t h = 1469598103934665603ull;
    for (const std::uint64_t w : wa) {
      h ^= static_cast<std::size_t>(w);
      h *= 1099511628211ull;
    }
    h ^= n;
    EXPECT_EQ(a.hash(), h);
    EXPECT_EQ(a.count(), elems.size());

    // Every binary operation throws on a universe mismatch, from either
    // side of the inline/heap boundary.
    Bitset x = a;
    const Bitset other(n + 1);
    EXPECT_THROW(x |= other, std::invalid_argument);
    EXPECT_THROW(x &= other, std::invalid_argument);
    EXPECT_THROW(x ^= other, std::invalid_argument);
    EXPECT_THROW(x.subtract(other), std::invalid_argument);
    EXPECT_THROW((void)x.is_subset_of(other), std::invalid_argument);
    EXPECT_THROW((void)x.intersects(other), std::invalid_argument);
    EXPECT_THROW((void)(x | other), std::invalid_argument);
    EXPECT_THROW((void)(x & other), std::invalid_argument);
    EXPECT_THROW((void)(x ^ other), std::invalid_argument);
    EXPECT_EQ(x, a);
  }
  // Sets of different universes order by size and never compare equal.
  EXPECT_TRUE(Bitset(128) < Bitset(129));
  EXPECT_NE(Bitset(128), Bitset(129));
}

}  // namespace
}  // namespace encodesat
