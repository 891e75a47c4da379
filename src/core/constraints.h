// The constraint intermediate representation: every constraint class the
// paper's framework satisfies (Sections 1, 6, 8), plus a small text format
// for building constraint sets in tests, examples and tools.
//
// Text grammar (one constraint per line, '#' comments):
//   face a b [c d] e        face-embedding (a,b,[c,d],e); bracketed symbols
//                           are encoding don't-cares (Section 8.1)
//   dominance a b           a > b (code of a bitwise covers code of b)
//   disjunctive a b c ...   a = b OR c OR ...
//   extdisjunctive a : b c | d e    (b AND c) OR (d AND e) >= a  (Section 6.2)
//   distance2 a b           hamming(code a, code b) >= 2 (Section 8.2)
//   nonface a b c           the face of {a,b,c} must contain some other
//                           symbol's code (Section 8.3)
//   symbol a                declares a symbol without constraining it
//
// Constraint member sets are stored as index vectors because symbols are
// interned incrementally while building; algorithms convert to Bitsets over
// the final symbol universe via the *_bitset helpers. ConstraintSet is the
// one place that knows which fields hold a symbol id: code that only needs
// every id, whatever its role, goes through for_each_symbol or relabeled.
// Each constraint compares field by field in declaration order.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/symbols.h"
#include "util/bitset.h"

namespace encodesat {

/// (m1, ..., mk, [d1, ...]): members must span a face containing no symbol
/// outside members ∪ dontcares; dontcares may fall either way (§8.1).
struct FaceConstraint {
  std::vector<std::uint32_t> members;
  std::vector<std::uint32_t> dontcares;
  auto operator<=>(const FaceConstraint&) const = default;
};

/// dominator > dominated.
struct DominanceConstraint {
  std::uint32_t dominator = 0;
  std::uint32_t dominated = 0;
  auto operator<=>(const DominanceConstraint&) const = default;
};

/// parent = OR of children (two or more children).
struct DisjunctiveConstraint {
  std::uint32_t parent = 0;
  std::vector<std::uint32_t> children;
  auto operator<=>(const DisjunctiveConstraint&) const = default;
};

/// OR over conjunctions of children >= parent (Section 6.2, from GPIs).
struct ExtendedDisjunctiveConstraint {
  std::uint32_t parent = 0;
  std::vector<std::vector<std::uint32_t>> conjunctions;
  auto operator<=>(const ExtendedDisjunctiveConstraint&) const = default;
};

/// hamming distance between the two codes must be >= 2.
struct Distance2Constraint {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  auto operator<=>(const Distance2Constraint&) const = default;
};

/// The face spanned by members must contain at least one other symbol.
struct NonFaceConstraint {
  std::vector<std::uint32_t> members;
  auto operator<=>(const NonFaceConstraint&) const = default;
};

/// Builds a Bitset over a universe of n symbols from an index list.
Bitset index_bitset(std::size_t n, const std::vector<std::uint32_t>& ids);

/// A complete encoding problem instance over n symbols.
class ConstraintSet {
 public:
  ConstraintSet() = default;
  explicit ConstraintSet(SymbolTable symbols) : symbols_(std::move(symbols)) {}

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  std::uint32_t num_symbols() const { return symbols_.size(); }

  std::vector<FaceConstraint>& faces() { return faces_; }
  const std::vector<FaceConstraint>& faces() const { return faces_; }
  std::vector<DominanceConstraint>& dominances() { return dominances_; }
  const std::vector<DominanceConstraint>& dominances() const {
    return dominances_;
  }
  std::vector<DisjunctiveConstraint>& disjunctives() { return disjunctives_; }
  const std::vector<DisjunctiveConstraint>& disjunctives() const {
    return disjunctives_;
  }
  std::vector<ExtendedDisjunctiveConstraint>& extended_disjunctives() {
    return extended_;
  }
  const std::vector<ExtendedDisjunctiveConstraint>& extended_disjunctives()
      const {
    return extended_;
  }
  std::vector<Distance2Constraint>& distance2s() { return distance2s_; }
  const std::vector<Distance2Constraint>& distance2s() const {
    return distance2s_;
  }
  std::vector<NonFaceConstraint>& nonfaces() { return nonfaces_; }
  const std::vector<NonFaceConstraint>& nonfaces() const { return nonfaces_; }

  bool has_output_constraints() const {
    return !dominances_.empty() || !disjunctives_.empty() || !extended_.empty();
  }
  /// Distance-2 (§8.2) or non-face (§8.3) constraints: the ones only the
  /// extension pipeline satisfies.
  bool has_extension_constraints() const {
    return !distance2s_.empty() || !nonfaces_.empty();
  }

  /// Calls `f` on every symbol-id field: the classes in the order above,
  /// the constraints of a class in order, each one's fields in declaration
  /// order. The mutable overload passes each id by reference.
  template <class F>
  void for_each_symbol(F&& f) const {
    visit_symbols(*this, f);
  }
  template <class F>
  void for_each_symbol(F&& f) {
    visit_symbols(*this, f);
  }

  /// The constraints with every symbol id `s` replaced by `to_new[s]`, in
  /// a set with an empty symbol table: the caller names the new ids, or
  /// leaves them unnamed when only the structure matters.
  ConstraintSet relabeled(const std::vector<std::uint32_t>& to_new) const;

  /// Convenience builders using symbol names (interned on first use).
  void add_face(const std::vector<std::string>& members,
                const std::vector<std::string>& dontcares = {});
  void add_dominance(const std::string& dominator,
                     const std::string& dominated);
  void add_disjunctive(const std::string& parent,
                       const std::vector<std::string>& children);
  void add_extended_disjunctive(
      const std::string& parent,
      const std::vector<std::vector<std::string>>& conjunctions);
  void add_distance2(const std::string& a, const std::string& b);
  void add_nonface(const std::vector<std::string>& members);

  /// Index-based builders for programmatic construction (symbols must
  /// already be interned).
  void add_face_ids(std::vector<std::uint32_t> members,
                    std::vector<std::uint32_t> dontcares = {});
  void add_dominance_ids(std::uint32_t dominator, std::uint32_t dominated);
  void add_disjunctive_ids(std::uint32_t parent,
                           std::vector<std::uint32_t> children);

  /// Render in the text grammar above (round-trips through parse).
  /// Symbols no constraint references are declared with `symbol` lines so
  /// the symbol universe survives the round trip.
  std::string to_string() const;

 private:
  std::vector<std::uint32_t> intern_all(const std::vector<std::string>& names);

  template <class Self, class F>
  static void visit_symbols(Self& self, F& f) {
    auto each = [&f](auto& ids) {
      for (auto& id : ids) f(id);
    };
    for (auto& c : self.faces_) {
      each(c.members);
      each(c.dontcares);
    }
    for (auto& c : self.dominances_) {
      f(c.dominator);
      f(c.dominated);
    }
    for (auto& c : self.disjunctives_) {
      f(c.parent);
      each(c.children);
    }
    for (auto& c : self.extended_) {
      f(c.parent);
      for (auto& conj : c.conjunctions) each(conj);
    }
    for (auto& c : self.distance2s_) {
      f(c.a);
      f(c.b);
    }
    for (auto& c : self.nonfaces_) each(c.members);
  }

  SymbolTable symbols_;
  std::vector<FaceConstraint> faces_;
  std::vector<DominanceConstraint> dominances_;
  std::vector<DisjunctiveConstraint> disjunctives_;
  std::vector<ExtendedDisjunctiveConstraint> extended_;
  std::vector<Distance2Constraint> distance2s_;
  std::vector<NonFaceConstraint> nonfaces_;
};

/// Diagnostic for a malformed constraint line.
struct ParseError {
  int line = 0;    ///< 1-based line number of the offending input line.
  int column = 0;  ///< 1-based column of the offending token (0 = unknown).
  std::string message;

  /// "line N, col C: message" ("line N: message" when the column is
  /// unknown) — ready for CLI diagnostics and the service wire payload.
  std::string to_string() const;
};

/// Parses the text grammar; throws std::runtime_error with a line number on
/// malformed input. Symbols appear in order of first mention. Degenerate
/// lines are rejected like malformed ones: self-dominance (`dominance a a`),
/// a symbol listed twice within one face constraint (member or don't-care),
/// a disjunctive parent appearing in its own RHS, and an empty
/// extended-disjunctive conjunction.
ConstraintSet parse_constraints(const std::string& text);

/// Non-throwing variant: returns std::nullopt on malformed input and fills
/// `*error` (when non-null) with the line number and message instead.
std::optional<ConstraintSet> parse_constraints(const std::string& text,
                                               ParseError* error);

}  // namespace encodesat
