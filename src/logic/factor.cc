#include "logic/factor.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace encodesat {

namespace {

// A literal is (input variable, admitted-value mask); cubes are literal
// sets. Full parts are not literals.
using Literal = std::pair<int, std::uint64_t>;
using LiteralCube = std::vector<Literal>;

std::uint64_t part_mask(const Domain& dom, const Cube& c, int var) {
  std::uint64_t m = 0;
  for (int j = 0; j < dom.input_size(var); ++j)
    if (c.bits.test(static_cast<std::size_t>(dom.pos(var, j))))
      m |= std::uint64_t{1} << j;
  return m;
}

std::uint64_t full_mask(const Domain& dom, int var) {
  return (std::uint64_t{1} << dom.input_size(var)) - 1;
}

int factor_rec(std::vector<LiteralCube> cubes) {
  if (cubes.empty()) return 0;
  if (cubes.size() == 1) return static_cast<int>(cubes[0].size());

  // Most frequent literal.
  std::map<Literal, int> freq;
  for (const auto& c : cubes)
    for (const auto& l : c) ++freq[l];
  Literal best{-1, 0};
  int best_count = 1;
  for (const auto& [lit, count] : freq)
    if (count > best_count) {
      best_count = count;
      best = lit;
    }
  if (best.first < 0) {
    // No literal occurs twice: flat SOP, nothing to factor.
    int total = 0;
    for (const auto& c : cubes) total += static_cast<int>(c.size());
    return total;
  }

  // Divide: quotient = cubes containing `best` with it removed;
  // remainder = the rest.
  std::vector<LiteralCube> quotient, remainder;
  for (auto& c : cubes) {
    const auto it = std::find(c.begin(), c.end(), best);
    if (it == c.end()) {
      remainder.push_back(std::move(c));
    } else {
      LiteralCube q;
      q.reserve(c.size() - 1);
      for (const auto& l : c)
        if (!(l == best)) q.push_back(l);
      quotient.push_back(std::move(q));
    }
  }
  // best * (quotient) + remainder
  return 1 + factor_rec(std::move(quotient)) + factor_rec(std::move(remainder));
}

std::vector<LiteralCube> to_literal_cubes(const Cover& f, int output) {
  const Domain& dom = f.domain();
  std::vector<LiteralCube> cubes;
  for (const Cube& c : f) {
    if (!c.bits.test(static_cast<std::size_t>(dom.out_pos(output)))) continue;
    LiteralCube lc;
    for (int v = 0; v < dom.num_inputs(); ++v) {
      const std::uint64_t m = part_mask(dom, c, v);
      if (m != full_mask(dom, v)) lc.emplace_back(v, m);
    }
    cubes.push_back(std::move(lc));
  }
  return cubes;
}

}  // namespace

int factored_literal_estimate(const Cover& f) {
  int total = 0;
  for (int o = 0; o < f.domain().num_outputs(); ++o)
    total += factor_rec(to_literal_cubes(f, o));
  return total;
}

}  // namespace encodesat
