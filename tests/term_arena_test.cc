// Tests for the arena-backed flat term store (util/term_arena.h) behind
// the SOP fold and unate-covering hot paths.
#include "util/term_arena.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/bitset.h"
#include "util/rng.h"

namespace encodesat {
namespace {

TEST(TermArena, AllocStartsZeroedAndStrideMatchesUniverse) {
  TermArena a(130);  // 3 words
  EXPECT_EQ(a.universe(), 130u);
  EXPECT_EQ(a.words(), 3u);
  const TermRef t = a.alloc();
  EXPECT_TRUE(a.empty(t));
  EXPECT_EQ(a.count(t), 0u);
  EXPECT_EQ(a.first(t), 130u);
  a.set(t, 0);
  a.set(t, 64);
  a.set(t, 129);
  EXPECT_EQ(a.count(t), 3u);
  EXPECT_EQ(a.first(t), 0u);
  EXPECT_TRUE(a.test(t, 129));
  a.reset(t, 64);
  EXPECT_FALSE(a.test(t, 64));
  EXPECT_EQ(a.count(t), 2u);
}

TEST(TermArena, ReleaseReusesSlotsWithoutGrowingTheBuffer) {
  TermArena a(64);
  const TermRef t0 = a.alloc();
  const TermRef t1 = a.alloc();
  a.set(t1, 7);
  EXPECT_EQ(a.live_terms(), 2u);
  EXPECT_EQ(a.capacity_terms(), 2u);
  a.release(t1);
  EXPECT_EQ(a.live_terms(), 1u);
  // The freed slot comes back zeroed, and the buffer does not grow.
  const TermRef t2 = a.alloc();
  EXPECT_EQ(t2, t1);
  EXPECT_TRUE(a.empty(t2));
  EXPECT_EQ(a.capacity_terms(), 2u);
  EXPECT_EQ(a.peak_bytes(), 2 * sizeof(std::uint64_t));
  (void)t0;
}

TEST(TermArena, CloneCopiesAcrossBufferGrowth) {
  // clone() appends to the buffer, which may reallocate; the copy must
  // still read the source from its new location.
  TermArena a(200);
  const TermRef src = a.alloc();
  a.set(src, 3);
  a.set(src, 150);
  for (int i = 0; i < 50; ++i) {
    const TermRef c = a.clone(src);
    EXPECT_TRUE(a.equal(src, c));
  }
  EXPECT_EQ(a.live_terms(), 51u);
}

TEST(TermArena, WordLevelSetOpsMatchBitset) {
  Rng rng(20260806);
  TermArena a(190);
  for (int trial = 0; trial < 20; ++trial) {
    Bitset x(190), y(190);
    for (std::size_t i = 0; i < 190; ++i) {
      if (rng.next_bool(0.3)) x.set(i);
      if (rng.next_bool(0.3)) y.set(i);
    }
    const TermRef tx = a.from_bitset(x);
    const TermRef ty = a.from_bitset(y);
    EXPECT_EQ(a.to_bitset(tx), x);
    EXPECT_EQ(a.count(tx), x.count());
    EXPECT_EQ(a.is_subset(tx, ty), x.is_subset_of(y));
    EXPECT_EQ(a.intersects(tx, ty), x.intersects(y));
    EXPECT_EQ(a.equal(tx, ty), x == y);
    EXPECT_EQ(a.less(tx, ty), x < y);

    const TermRef u = a.clone(tx);
    a.or_into(u, ty);
    EXPECT_EQ(a.to_bitset(u), x | y);
    const TermRef d = a.alloc();
    a.andnot_of(d, tx, ty);
    Bitset diff = x;
    diff.subtract(y);
    EXPECT_EQ(a.to_bitset(d), diff);

    a.release(d);
    a.release(u);
    a.release(ty);
    a.release(tx);
  }
  EXPECT_EQ(a.live_terms(), 0u);
}

TEST(TermArena, AllocAndnotFillsAReusedSlotWithoutZeroing) {
  // Two arenas run the same traffic; one takes its a & ~b terms from
  // alloc_andnot, the other from alloc() + andnot_of.
  Rng rng(20261021);
  Bitset bx(130), by(130);  // 3 words, 62 padding bits
  for (std::size_t e = 0; e < 130; ++e) {
    if (rng.next_bool(0.5)) bx.set(e);
    if (rng.next_bool(0.5)) by.set(e);
  }
  TermArena fused(130), plain(130);
  TermRef x = 0, y = 0;
  for (TermArena* a : {&fused, &plain}) {
    x = a->from_bitset(bx);
    y = a->from_bitset(by);
    const TermRef junk = a->alloc();
    std::uint64_t* w = a->data(junk);
    for (std::size_t k = 0; k < a->words(); ++k) w[k] = ~std::uint64_t{0};
    a->release(junk);
  }
  ASSERT_FALSE(fused.is_subset(x, y));
  // The first call reuses the all-ones slot, the second appends one.
  for (int round = 0; round < 2; ++round) {
    const TermRef f = fused.alloc_andnot(x, y);
    const TermRef q = plain.alloc();
    plain.andnot_of(q, x, y);
    EXPECT_EQ(f, q);
    for (std::size_t k = 0; k < fused.words(); ++k) {
      EXPECT_EQ(fused.data(f)[k], fused.data(x)[k] & ~fused.data(y)[k]);
      EXPECT_EQ(fused.data(f)[k], plain.data(q)[k]);
    }
    EXPECT_EQ(fused.total_allocs(), plain.total_allocs());
    EXPECT_EQ(fused.total_reuses(), plain.total_reuses());
    EXPECT_EQ(fused.peak_bytes(), plain.peak_bytes());
    EXPECT_EQ(fused.live_terms(), plain.live_terms());
  }
  EXPECT_EQ(fused.total_reuses(), 1u);
  EXPECT_EQ(fused.total_allocs(), 4u);
}

TEST(TermArena, SignatureIsSoundForSubsetPruning) {
  // a ⊆ b implies sig(a) & ~sig(b) == 0, for every pair: the contrapositive
  // is a one-word rejection of a subset test.
  Rng rng(77);
  TermArena a(300);
  std::vector<TermRef> terms;
  for (int i = 0; i < 30; ++i) {
    const TermRef t = a.alloc();
    for (std::size_t e = 0; e < 300; ++e)
      if (rng.next_bool(0.1)) a.set(t, e);
    terms.push_back(t);
  }
  for (const TermRef p : terms)
    for (const TermRef q : terms)
      if (a.is_subset(p, q)) {
        EXPECT_EQ(a.signature(p) & ~a.signature(q), 0u);
      }
}

TEST(TermArena, ForEachVisitsInIncreasingOrder) {
  TermArena a(140);
  const TermRef t = a.alloc();
  const std::size_t want[] = {0, 63, 64, 70, 139};
  for (std::size_t i : want) a.set(t, i);
  std::vector<std::size_t> got;
  a.for_each(t, [&](std::size_t i) { got.push_back(i); });
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]);
}

TEST(TermArena, TermGuardReleasesOnScopeExit) {
  TermArena a(64);
  {
    TermGuard g(a);
    g.track(a.alloc());
    g.track(a.alloc());
    EXPECT_EQ(a.live_terms(), 2u);
  }
  EXPECT_EQ(a.live_terms(), 0u);
  // Slots freed by the guard are reused.
  (void)a.alloc();
  EXPECT_EQ(a.capacity_terms(), 2u);
}

TEST(TermArena, EmptyUniverseStillHasOneWordStride) {
  TermArena a(0);
  EXPECT_EQ(a.words(), 1u);
  const TermRef t = a.alloc();
  EXPECT_TRUE(a.empty(t));
  EXPECT_EQ(a.signature(t), 0u);
}

}  // namespace
}  // namespace encodesat
