// Tests for FaceCostMemo and the unused-code don't-care cover it builds.
// The memo must answer exactly what single-pass evaluate_face_cost answers
// over unused_code_dontcares: on a miss, on a hit, after another key took
// its slot, and where it bypasses the table (faces of more than
// kMaxMembers members, codes wider than kWordOracleMaxInputs bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "logic/espresso.h"
#include "util/rng.h"

namespace encodesat {
namespace {

// n distinct random codes of `bits` bits.
Encoding random_encoding(int bits, std::uint32_t n, Rng& rng) {
  std::vector<std::uint64_t> pool(std::size_t{1} << bits);
  for (std::size_t c = 0; c < pool.size(); ++c) pool[c] = c;
  Encoding enc;
  enc.bits = bits;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::swap(pool[i], pool[i + rng.next_below(pool.size() - i)]);
    enc.codes.push_back(pool[i]);
  }
  return enc;
}

// n symbols and `faces` random faces of 1..max_members members (in random
// order) with up to two don't-care members each.
ConstraintSet random_faces(std::uint32_t n, int faces, std::size_t max_members,
                           Rng& rng) {
  ConstraintSet cs;
  for (std::uint32_t s = 0; s < n; ++s)
    cs.symbols().intern("s" + std::to_string(s));
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t s = 0; s < n; ++s) order[s] = s;
  for (int i = 0; i < faces; ++i) {
    for (std::uint32_t s = n; s > 1; --s)
      std::swap(order[s - 1], order[rng.next_below(s)]);
    const std::size_t size = static_cast<std::size_t>(
        rng.next_in(1, std::min<std::size_t>(max_members, n)));
    const std::size_t dcs = static_cast<std::size_t>(
        rng.next_below(std::min<std::size_t>(2, n - size) + 1));
    const auto mid = order.begin() + static_cast<long>(size);
    cs.add_face_ids(
        std::vector<std::uint32_t>(order.begin(), mid),
        std::vector<std::uint32_t>(mid, mid + static_cast<long>(dcs)));
  }
  return cs;
}

// Every face of cs under enc against single-pass evaluate_face_cost.
void expect_memo_matches(FaceCostMemo& memo, const Encoding& enc,
                         const ConstraintSet& cs) {
  const Cover dc = unused_code_dontcares(enc);
  for (std::size_t i = 0; i < cs.faces().size(); ++i) {
    SCOPED_TRACE("face " + std::to_string(i));
    const FaceConstraint& f = cs.faces()[i];
    const FaceCost want = evaluate_face_cost(enc, cs, f, dc, /*fast=*/true);
    const FaceCost got = memo.cost(enc, cs, f);
    EXPECT_EQ(got.satisfied, want.satisfied);
    EXPECT_EQ(got.cubes, want.cubes);
    EXPECT_EQ(got.literals, want.literals);
  }
}

// 1-6 bits, faces up to two members past the table's width, three
// encodings per seed looked up in turn (each change of used codes
// rebuilds the DC cover), then all again.
TEST(FaceCostMemo, MatchesEvaluateFaceCostOnFirstAndRepeatedLookups) {
  for (int bits = 1; bits <= kWordOracleMaxInputs; ++bits) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("bits " + std::to_string(bits) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 100 + static_cast<std::uint64_t>(bits));
      const auto space = std::uint32_t{1} << bits;
      const auto n = static_cast<std::uint32_t>(rng.next_in(2, space));
      const ConstraintSet cs =
          random_faces(n, 12, FaceCostMemo::kMaxMembers + 2, rng);
      std::vector<Encoding> encs;
      for (int e = 0; e < 3; ++e) encs.push_back(random_encoding(bits, n, rng));
      FaceCostMemo memo;
      for (int round = 0; round < 2; ++round)
        for (const Encoding& enc : encs) expect_memo_matches(memo, enc, cs);
    }
  }
}

// What a memo key holds for one lookup: the used-code and don't-care-code
// sets, and the member codes in order.
std::vector<std::uint64_t> key_of(const Encoding& enc,
                                  const FaceConstraint& f) {
  std::vector<std::uint64_t> key = {0, 0};
  for (const std::uint64_t code : enc.codes) key[0] |= std::uint64_t{1} << code;
  for (const auto d : f.dontcares) key[1] |= std::uint64_t{1} << enc.codes[d];
  for (const auto m : f.members) key.push_back(enc.codes[m]);
  return key;
}

// Three families of keys, each sharing all but one part of the key (the
// member codes, the don't-care codes, the used codes), each with more
// distinct keys than the table has slots: so in each family two keys that
// differ only in that part share a slot. Each family is looked up twice,
// its keys evicted or not.
TEST(FaceCostMemo, KeysThatShareASlotAnswerAgain) {
  Rng rng(7);
  auto symbols = [](std::uint32_t n) {
    ConstraintSet cs;
    for (std::uint32_t s = 0; s < n; ++s)
      cs.symbols().intern("s" + std::to_string(s));
    return cs;
  };
  auto pick = [&](std::uint32_t from, std::uint32_t to, std::size_t count) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t s = from; s < to; ++s) ids.push_back(s);
    for (std::size_t i = 0; i < count; ++i)
      std::swap(ids[i], ids[i + rng.next_below(ids.size() - i)]);
    ids.resize(count);
    return ids;
  };
  ConstraintSet by_members = symbols(40), by_dontcares = symbols(40);
  for (int i = 0; i < 5000; ++i) {
    by_members.add_face_ids(pick(0, 40, rng.next_in(3, 5)));
    by_dontcares.add_face_ids({0, 1}, pick(2, 40, rng.next_in(3, 6)));
  }
  const Encoding one = random_encoding(6, 40, rng);
  ConstraintSet by_used = symbols(20);
  by_used.add_face_ids({0, 1}, {2});
  std::vector<Encoding> encs;
  for (int e = 0; e < 5000; ++e) {
    Encoding enc;
    enc.bits = 6;
    enc.codes = {0, 1, 2};
    for (const std::uint32_t code : pick(3, 64, 17)) enc.codes.push_back(code);
    encs.push_back(enc);
  }

  const std::pair<const ConstraintSet*, std::vector<Encoding>> families[] = {
      {&by_members, {one}}, {&by_dontcares, {one}}, {&by_used, encs}};
  for (const auto& [cs, family_encs] : families) {
    std::set<std::vector<std::uint64_t>> keys;
    for (const Encoding& enc : family_encs)
      for (const FaceConstraint& f : cs->faces()) keys.insert(key_of(enc, f));
    ASSERT_GT(keys.size(), FaceCostMemo::kSlots);
    FaceCostMemo memo;
    for (int round = 0; round < 2; ++round)
      for (const Encoding& enc : family_encs)
        expect_memo_matches(memo, enc, *cs);
  }
}

// The same codes at 3-7 bits through one memo: the same words at every
// width up to six bits, with different unused codes.
TEST(FaceCostMemo, SameCodesAtEveryWidth) {
  Rng rng(19);
  const ConstraintSet cs = random_faces(6, 12, 4, rng);
  Encoding enc = random_encoding(3, 6, rng);
  FaceCostMemo memo;
  for (int round = 0; round < 2; ++round)
    for (int bits = 3; bits <= 7; ++bits) {
      enc.bits = bits;
      expect_memo_matches(memo, enc, cs);
    }
}

// 64 symbols fill the 6-bit space: no unused code, an empty DC cover.
TEST(FaceCostMemo, FullSixBitSpace) {
  Rng rng(11);
  const ConstraintSet cs = random_faces(64, 24, 8, rng);
  FaceCostMemo memo;
  for (int e = 0; e < 3; ++e) {
    const Encoding enc = random_encoding(6, 64, rng);
    EXPECT_TRUE(unused_code_dontcares(enc).empty());
    expect_memo_matches(memo, enc, cs);
  }
}

// Seven-bit codes bypass the table; the DC cover still follows the used
// codes, which a permutation of the same codes leaves as they were.
TEST(FaceCostMemo, SevenBitCodesBypassTheTable) {
  Rng rng(13);
  const ConstraintSet cs = random_faces(40, 10, 6, rng);
  const Encoding a = random_encoding(7, 40, rng);
  const Encoding b = random_encoding(7, 40, rng);
  Encoding a_permuted = a;
  std::reverse(a_permuted.codes.begin(), a_permuted.codes.end());
  FaceCostMemo memo;
  for (const Encoding& enc : {a, b, a_permuted, a})
    expect_memo_matches(memo, enc, cs);
}

// Unused code points are don't-cares of the Fig. 9 constraint function at
// every code length (the DC cover every face evaluation shares): built
// from the used-code word up to six bits, by URP complement beyond.
TEST(MultiOutputConstraintFunction, UnusedCodesAreDontCaresAtAnyLength) {
  for (const int bits : {1, 2, 3, 4, 5, 6, 12, 13, 20, 21}) {
    SCOPED_TRACE(bits);
    Encoding enc;
    enc.bits = bits;
    enc.codes = bits == 1 ? std::vector<std::uint64_t>{0}
                          : std::vector<std::uint64_t>{0, 1, 2};
    const Cover dc = unused_code_dontcares(enc);
    const Domain& dom = dc.domain();
    ASSERT_EQ(dom.num_inputs(), bits);
    auto point = [&](std::uint64_t code) {
      Cube c(dom);
      for (int v = 0; v < bits; ++v)
        c.bits.set(static_cast<std::size_t>(
            dom.pos(v, static_cast<int>((code >> v) & 1u))));
      c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
      return c;
    };
    auto dc_contains = [&](std::uint64_t code) {
      for (const Cube& c : dc)
        if (cube_contains(c, point(code))) return true;
      return false;
    };
    auto dc_meets = [&](std::uint64_t code) {
      for (const Cube& c : dc)
        if (cubes_intersect(dom, c, point(code))) return true;
      return false;
    };
    const std::uint64_t last = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint64_t> unused = {last};
    if (bits <= kWordOracleMaxInputs)
      for (std::uint64_t code = enc.codes.size(); code < last; ++code)
        unused.push_back(code);
    else
      unused.push_back(3);
    for (const std::uint64_t code : unused) EXPECT_TRUE(dc_contains(code));
    for (const std::uint64_t used : enc.codes) EXPECT_FALSE(dc_meets(used));
  }
}

}  // namespace
}  // namespace encodesat
