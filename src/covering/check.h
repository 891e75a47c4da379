// Internal: the problem check both covering engines run before any work.
// Only covering/unate.cc and covering/binate.cc include this header.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace encodesat {

/// Throws std::invalid_argument, naming `solver`, when `weights` is
/// non-empty with a size other than `num_columns`, or when `rows_fit` is
/// false: some row's universe differs from `num_columns`.
inline void check_cover_problem(const char* solver, std::size_t num_columns,
                                const std::vector<int>& weights,
                                bool rows_fit) {
  if (!weights.empty() && weights.size() != num_columns)
    throw std::invalid_argument(std::string(solver) + ": weights has " +
                                std::to_string(weights.size()) +
                                " entries for " + std::to_string(num_columns) +
                                " columns");
  if (!rows_fit)
    throw std::invalid_argument(std::string(solver) +
                                ": row universe does not match num_columns");
}

}  // namespace encodesat
