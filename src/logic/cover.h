// A Cover is a set of cubes over a shared Domain — a two-level (PLA-style)
// representation of a multi-valued-input, multi-output function.
#pragma once

#include <string>
#include <vector>

#include "logic/cube.h"
#include "logic/domain.h"

namespace encodesat {

class Cover {
 public:
  Cover() = default;
  explicit Cover(Domain dom) : dom_(std::move(dom)) {}

  const Domain& domain() const { return dom_; }

  bool empty() const { return cubes_.empty(); }
  std::size_t size() const { return cubes_.size(); }
  const Cube& operator[](std::size_t i) const { return cubes_[i]; }
  Cube& operator[](std::size_t i) { return cubes_[i]; }

  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }

  auto begin() const { return cubes_.begin(); }
  auto end() const { return cubes_.end(); }

  /// Appends a cube; empty cubes are silently dropped since they denote the
  /// empty set and would confuse the URP special cases.
  void add(Cube c);
  void add_all(const Cover& o);
  void remove(std::size_t i) { cubes_.erase(cubes_.begin() + static_cast<long>(i)); }

  /// Single-cube containment: deletes every cube contained in another cube
  /// of the cover (ties broken by keeping the earlier cube). For a unate
  /// function this yields the unique minimal SOP (Brayton et al., ch. 3).
  void make_scc_minimal();

  bool has_full_cube() const;

  /// Total input literals over all cubes (Fig. 9 cost semantics).
  int input_literals() const;

  /// Multi-line dump for diagnostics.
  std::string to_string() const;

 private:
  Domain dom_;
  std::vector<Cube> cubes_;
};

/// The universe cover (single full cube).
Cover universe_cover(const Domain& dom);

/// Cofactor of a cover with respect to a cube: cofactors each cube,
/// dropping those that do not intersect p.
Cover cover_cofactor(const Cover& c, const Cube& p);

}  // namespace encodesat
