#include "baseline/annealing.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/bounded.h"
#include "core/verify.h"
#include "util/rng.h"

namespace encodesat {

namespace {

// Geometric cooling schedule: the temperature starts at kInitialTemperature
// and is multiplied by kCooling after each temperature point.
constexpr double kInitialTemperature = 4.0;
constexpr double kCooling = 0.85;
// Seed of the move generator and the acceptance draws.
constexpr std::uint64_t kSeed = 99;

long evaluate(const Encoding& enc, const ConstraintSet& cs, CostKind kind,
              int* evals) {
  ++*evals;
  if (kind == CostKind::kViolatedFaces)
    return static_cast<long>(cs.faces().size()) -
           count_satisfied_faces(enc, cs);
  return evaluate_encoding_cost(enc, cs, /*fast=*/true).by_kind(kind);
}

}  // namespace

AnnealResult anneal_encode(const ConstraintSet& cs, int bits,
                           const AnnealOptions& opts) {
  const std::uint32_t n = cs.num_symbols();
  if (bits < minimum_code_length(n))
    throw std::invalid_argument("code length too small for symbol count");
  if (bits > 20) throw std::invalid_argument("code length too large");
  const std::uint64_t space = std::uint64_t{1} << bits;

  Rng rng(kSeed);
  AnnealResult res;
  res.encoding.bits = bits;
  res.encoding.codes.assign(n, 0);
  std::vector<std::uint64_t> free_codes;
  {
    // Initial assignment: identity order through the code space.
    std::vector<bool> used(space, false);
    for (std::uint32_t s = 0; s < n; ++s) {
      res.encoding.codes[s] = s;
      used[s] = true;
    }
    for (std::uint64_t c = 0; c < space; ++c)
      if (!used[c]) free_codes.push_back(c);
  }

  Encoding current = res.encoding;
  long cur_cost = evaluate(current, cs, opts.cost, &res.evaluations);
  Encoding best = current;
  long best_cost = cur_cost;

  double temperature = kInitialTemperature;
  for (int tp = 0; tp < opts.temperature_points; ++tp) {
    for (int mv = 0; mv < opts.moves_per_temperature; ++mv) {
      Encoding trial = current;
      const bool free_move = !free_codes.empty() && rng.next_bool(0.3);
      std::uint32_t moved_symbol = 0;
      std::size_t free_index = 0;
      if (free_move) {
        // Move a symbol to an unused code (the pool is updated only if the
        // move is accepted).
        moved_symbol = static_cast<std::uint32_t>(rng.next_below(n));
        free_index = rng.next_below(free_codes.size());
        trial.codes[moved_symbol] = free_codes[free_index];
      } else {
        // Swap two symbols' codes.
        const std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(n));
        std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(n));
        while (b == a) b = static_cast<std::uint32_t>(rng.next_below(n));
        std::swap(trial.codes[a], trial.codes[b]);
      }
      const long trial_cost = evaluate(trial, cs, opts.cost, &res.evaluations);
      const long delta = trial_cost - cur_cost;
      const bool accept =
          delta <= 0 ||
          rng.next_double() <
              std::exp(-static_cast<double>(delta) / std::max(temperature, 1e-9));
      if (accept) {
        if (free_move) free_codes[free_index] = current.codes[moved_symbol];
        current = std::move(trial);
        cur_cost = trial_cost;
        if (cur_cost < best_cost) {
          best_cost = cur_cost;
          best = current;
        }
      }
    }
    temperature *= kCooling;
  }

  res.encoding = best;
  res.cost = evaluate_encoding_cost(res.encoding, cs, /*fast=*/false);
  return res;
}

}  // namespace encodesat
