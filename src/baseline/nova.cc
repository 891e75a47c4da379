#include "baseline/nova.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/bounded.h"
#include "core/verify.h"
#include "util/rng.h"

namespace encodesat {

namespace {

// Passes of the swap / move-to-free-code improvement loop.
constexpr int kImprovementPasses = 6;
// Seed of the random tie-break in the greedy placement.
constexpr std::uint64_t kSeed = 7;

int count_satisfied(const Encoding& enc, const ConstraintSet& cs) {
  return count_satisfied_faces(enc, cs);
}

}  // namespace

Encoding nova_encode(const ConstraintSet& cs, int bits) {
  const std::uint32_t n = cs.num_symbols();
  if (bits < minimum_code_length(n))
    throw std::invalid_argument("code length too small for symbol count");
  if (bits > 20) throw std::invalid_argument("code length too large");
  const std::uint64_t space = std::uint64_t{1} << bits;

  // Symbol order: most-constrained first (sum of face-constraint
  // memberships, larger faces weighing less since they are easier).
  std::vector<double> weight(n, 0.0);
  for (const auto& f : cs.faces())
    for (auto m : f.members)
      weight[m] += 1.0 / static_cast<double>(f.members.size());
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return weight[a] > weight[b];
                   });

  Rng rng(kSeed);
  Encoding enc;
  enc.bits = bits;
  enc.codes.assign(n, 0);
  std::vector<bool> used(space, false);
  std::vector<bool> placed(n, false);

  // Greedy placement: each symbol takes the free code closest (total
  // hamming distance) to its already-placed face-constraint partners —
  // adjacent codes keep faces small.
  for (std::uint32_t s : order) {
    std::uint64_t best_code = 0;
    long best_score = std::numeric_limits<long>::max();
    for (std::uint64_t code = 0; code < space; ++code) {
      if (used[code]) continue;
      long score = 0;
      for (const auto& f : cs.faces()) {
        const bool member =
            std::find(f.members.begin(), f.members.end(), s) != f.members.end();
        if (!member) continue;
        for (auto m : f.members)
          if (m != s && placed[m])
            score += std::popcount(code ^ enc.codes[m]);
      }
      // Light random tiebreak keeps the heuristic from degenerate runs.
      score = score * 16 + static_cast<long>(rng.next_below(16));
      if (score < best_score) {
        best_score = score;
        best_code = code;
      }
    }
    enc.codes[s] = best_code;
    used[best_code] = true;
    placed[s] = true;
  }

  // Iterative improvement: swap two symbols' codes, or move a symbol to a
  // free code, accepting strict improvements in satisfied faces.
  int best = count_satisfied(enc, cs);
  for (int pass = 0; pass < kImprovementPasses; ++pass) {
    bool improved = false;
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        std::swap(enc.codes[a], enc.codes[b]);
        const int sat = count_satisfied(enc, cs);
        if (sat > best) {
          best = sat;
          improved = true;
        } else {
          std::swap(enc.codes[a], enc.codes[b]);
        }
      }
      for (std::uint64_t code = 0; code < space; ++code) {
        if (used[code]) continue;
        const std::uint64_t old = enc.codes[a];
        enc.codes[a] = code;
        const int sat = count_satisfied(enc, cs);
        if (sat > best) {
          best = sat;
          used[old] = false;
          used[code] = true;
          improved = true;
        } else {
          enc.codes[a] = old;
        }
      }
    }
    if (!improved) break;
  }
  return enc;
}

}  // namespace encodesat
