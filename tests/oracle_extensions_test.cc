// Brute-force oracle tests for the Section 8 extension solver: on tiny
// universes, enumerate every injective code assignment and compare
// feasibility (and bound the length) against the extension pipeline.
#include <gtest/gtest.h>

#include "core/extensions.h"
#include "core/solver.h"
#include "core/verify.h"
#include "util/rng.h"

namespace encodesat {
namespace {

// Smallest bits in [min_bits, max_bits] for which some injective assignment
// satisfies every constraint; -1 if none up to max_bits.
int brute_force_min_bits(const ConstraintSet& cs, int max_bits) {
  const std::uint32_t n = cs.num_symbols();
  for (int bits = 1; bits <= max_bits; ++bits) {
    const std::uint64_t space = std::uint64_t{1} << bits;
    if (space < n) continue;
    // Enumerate injective assignments recursively.
    Encoding enc;
    enc.bits = bits;
    enc.codes.assign(n, 0);
    std::vector<bool> used(space, false);
    std::function<bool(std::uint32_t)> place = [&](std::uint32_t s) -> bool {
      if (s == n) return verify_encoding(enc, cs).empty();
      for (std::uint64_t c = 0; c < space; ++c) {
        if (used[c]) continue;
        used[c] = true;
        enc.codes[s] = c;
        if (place(s + 1)) return true;
        used[c] = false;
      }
      return false;
    };
    if (place(0)) return bits;
  }
  return -1;
}

ConstraintSet random_extended(Rng& rng, std::uint32_t n) {
  ConstraintSet cs;
  for (std::uint32_t i = 0; i < n; ++i)
    cs.symbols().intern("s" + std::to_string(i));
  for (int f = 0; f < 2; ++f) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < n; ++s)
      if (rng.next_bool(0.45)) members.push_back(s);
    if (members.size() >= 2 && members.size() < n)
      cs.add_face_ids(std::move(members));
  }
  if (rng.next_bool(0.7)) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    if (a != b) cs.add_distance2("s" + std::to_string(a), "s" + std::to_string(b));
  }
  if (rng.next_bool(0.5)) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < n; ++s)
      if (rng.next_bool(0.5)) members.push_back(s);
    if (members.size() >= 2 && members.size() < n)
      cs.nonfaces().push_back(NonFaceConstraint{std::move(members)});
  }
  if (rng.next_bool(0.4)) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    if (a != b) cs.add_dominance_ids(a, b);
  }
  return cs;
}

class ExtensionsOracle : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionsOracle, SoundAgainstBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 929 + 31);
  const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.next_below(2));
  const ConstraintSet cs = random_extended(rng, n);
  const int max_bits = 4;

  const int oracle = brute_force_min_bits(cs, max_bits);
  SolveOptions so;
  so.pipeline = SolveOptions::Pipeline::kExtensions;
  const SolveResult res = Solver(cs).encode(so);

  // Soundness: anything the solver emits must verify, and it can never
  // beat the brute-force optimum length.
  if (res.status == SolveResult::Status::kEncoded) {
    EXPECT_TRUE(verify_encoding(res.encoding, cs).empty()) << cs.to_string();
    if (oracle >= 0)
      EXPECT_GE(res.encoding.bits, oracle) << cs.to_string();
    else
      EXPECT_GT(res.encoding.bits, max_bits) << cs.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionsOracle, ::testing::Range(0, 30));

TEST(ExtensionsOracle, CompletenessRateIsBounded) {
  // The candidate pool is complete for face + output constraints (Theorem
  // 6.1) but only heuristic for distance-2/non-face (the paper's Section 8
  // sketch assumes a rich prime pool). This deterministic sweep pins the
  // rate of "oracle feasible, solver said infeasible" misses so pool
  // regressions are caught.
  int disagreements = 0, feasible_cases = 0;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 929 + 31);
    const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.next_below(2));
    const ConstraintSet cs = random_extended(rng, n);
    const int oracle = brute_force_min_bits(cs, 4);
    if (oracle < 0) continue;
    ++feasible_cases;
    SolveOptions so;
    so.pipeline = SolveOptions::Pipeline::kExtensions;
    const SolveResult res = Solver(cs).encode(so);
    if (res.status != SolveResult::Status::kEncoded)
      ++disagreements;
  }
  EXPECT_GT(feasible_cases, 10);
  EXPECT_LE(disagreements, 2)
      << "extension-solver candidate pool lost completeness";
}

}  // namespace
}  // namespace encodesat
