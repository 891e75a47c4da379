#include "core/constraints.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace encodesat {

Bitset index_bitset(std::size_t n, const std::vector<std::uint32_t>& ids) {
  Bitset b(n);
  for (std::uint32_t id : ids) b.set(id);
  return b;
}

std::vector<std::uint32_t> ConstraintSet::intern_all(
    const std::vector<std::string>& names) {
  std::vector<std::uint32_t> out;
  out.reserve(names.size());
  for (const auto& s : names) out.push_back(symbols_.intern(s));
  return out;
}

void ConstraintSet::add_face(const std::vector<std::string>& members,
                             const std::vector<std::string>& dontcares) {
  faces_.push_back(FaceConstraint{intern_all(members), intern_all(dontcares)});
}

void ConstraintSet::add_dominance(const std::string& dominator,
                                  const std::string& dominated) {
  dominances_.push_back(
      DominanceConstraint{symbols_.intern(dominator), symbols_.intern(dominated)});
}

void ConstraintSet::add_disjunctive(const std::string& parent,
                                    const std::vector<std::string>& children) {
  disjunctives_.push_back(
      DisjunctiveConstraint{symbols_.intern(parent), intern_all(children)});
}

void ConstraintSet::add_extended_disjunctive(
    const std::string& parent,
    const std::vector<std::vector<std::string>>& conjunctions) {
  ExtendedDisjunctiveConstraint c;
  c.parent = symbols_.intern(parent);
  for (const auto& conj : conjunctions) c.conjunctions.push_back(intern_all(conj));
  extended_.push_back(std::move(c));
}

void ConstraintSet::add_distance2(const std::string& a, const std::string& b) {
  distance2s_.push_back(
      Distance2Constraint{symbols_.intern(a), symbols_.intern(b)});
}

void ConstraintSet::add_nonface(const std::vector<std::string>& members) {
  nonfaces_.push_back(NonFaceConstraint{intern_all(members)});
}

void ConstraintSet::add_face_ids(std::vector<std::uint32_t> members,
                                 std::vector<std::uint32_t> dontcares) {
  faces_.push_back(FaceConstraint{std::move(members), std::move(dontcares)});
}

void ConstraintSet::add_dominance_ids(std::uint32_t dominator,
                                      std::uint32_t dominated) {
  dominances_.push_back(DominanceConstraint{dominator, dominated});
}

void ConstraintSet::add_disjunctive_ids(std::uint32_t parent,
                                        std::vector<std::uint32_t> children) {
  disjunctives_.push_back(DisjunctiveConstraint{parent, std::move(children)});
}

ConstraintSet ConstraintSet::relabeled(
    const std::vector<std::uint32_t>& to_new) const {
  ConstraintSet out;
  out.faces_ = faces_;
  out.dominances_ = dominances_;
  out.disjunctives_ = disjunctives_;
  out.extended_ = extended_;
  out.distance2s_ = distance2s_;
  out.nonfaces_ = nonfaces_;
  out.for_each_symbol([&](std::uint32_t& id) { id = to_new[id]; });
  return out;
}

std::string ConstraintSet::to_string() const {
  std::ostringstream out;
  auto emit_names = [&](const std::vector<std::uint32_t>& ids) {
    for (std::uint32_t id : ids) out << ' ' << symbols_.name(id);
  };
  // Symbols no constraint mentions still shape the problem (they need
  // distinct codes and can intrude into faces), so declare them explicitly
  // to keep write -> parse a faithful round trip.
  std::vector<bool> referenced(symbols_.size(), false);
  for_each_symbol([&](std::uint32_t id) { referenced[id] = true; });
  for (std::uint32_t id = 0; id < symbols_.size(); ++id)
    if (!referenced[id]) out << "symbol " << symbols_.name(id) << '\n';
  for (const auto& f : faces_) {
    out << "face";
    emit_names(f.members);
    if (!f.dontcares.empty()) {
      out << " [";
      for (std::size_t i = 0; i < f.dontcares.size(); ++i)
        out << (i ? " " : "") << symbols_.name(f.dontcares[i]);
      out << " ]";
    }
    out << '\n';
  }
  for (const auto& d : dominances_)
    out << "dominance " << symbols_.name(d.dominator) << ' '
        << symbols_.name(d.dominated) << '\n';
  for (const auto& d : disjunctives_) {
    out << "disjunctive " << symbols_.name(d.parent);
    emit_names(d.children);
    out << '\n';
  }
  for (const auto& e : extended_) {
    out << "extdisjunctive " << symbols_.name(e.parent) << " :";
    for (std::size_t i = 0; i < e.conjunctions.size(); ++i) {
      if (i) out << " |";
      emit_names(e.conjunctions[i]);
    }
    out << '\n';
  }
  for (const auto& d : distance2s_)
    out << "distance2 " << symbols_.name(d.a) << ' ' << symbols_.name(d.b)
        << '\n';
  for (const auto& nf : nonfaces_) {
    out << "nonface";
    emit_names(nf.members);
    out << '\n';
  }
  return out.str();
}

std::string ParseError::to_string() const {
  if (column <= 0) return "line " + std::to_string(line) + ": " + message;
  return "line " + std::to_string(line) + ", col " + std::to_string(column) +
         ": " + message;
}

namespace {

// Internal control flow of the parser; both public overloads translate it
// at their boundary (into std::runtime_error or a ParseError out-param).
struct ParseFailure {
  ParseError err;
};

[[noreturn]] void parse_error(int line_no, int column,
                               const std::string& msg) {
  throw ParseFailure{ParseError{line_no, column, msg}};
}

ConstraintSet parse_impl(const std::string& text) {
  ConstraintSet cs;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  // Column of `token` in the raw input line (1-based); with no token, the
  // column where the statement begins. Tokens never contain whitespace, so
  // the first occurrence is the offending one except for repeated names —
  // close enough for a diagnostic.
  auto col_of = [&](const std::string& token) -> int {
    const std::size_t pos = token.empty() ? raw.find_first_not_of(" \t")
                                          : raw.find(token);
    return pos == std::string::npos ? 1 : static_cast<int>(pos) + 1;
  };
  auto fail = [&](const std::string& msg, const std::string& token = "") {
    parse_error(line_no, col_of(token), msg);
  };
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line{trim(raw)};
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = std::string{trim(line.substr(0, hash))};
    if (line.empty()) continue;

    auto tok = split_ws(line);
    const std::string kind = tok[0];
    const std::vector<std::string> args(tok.begin() + 1, tok.end());

    if (kind == "symbol") {
      if (args.size() != 1) fail("symbol takes one name");
      cs.symbols().intern(args[0]);
    } else if (kind == "face") {
      std::vector<std::string> members, dontcares;
      bool in_dc = false;
      for (std::string a : args) {
        // Brackets may be glued to names: "[c" or "d]".
        bool open = false, close = false;
        if (!a.empty() && a.front() == '[') {
          open = true;
          a.erase(a.begin());
        }
        if (!a.empty() && a.back() == ']') {
          close = true;
          a.pop_back();
        }
        if (open) {
          if (in_dc) fail("nested '['");
          in_dc = true;
        }
        if (!a.empty()) (in_dc ? dontcares : members).push_back(a);
        if (close) {
          if (!in_dc) fail("']' without '['");
          in_dc = false;
        }
      }
      if (in_dc) fail("unterminated '['");
      if (members.size() < 2)
        fail("face needs at least two (non-don't-care) members");
      // A symbol listed twice (as member, don't-care, or both) makes the
      // face semantics ambiguous downstream (span vs intruder checks).
      std::vector<std::string> all(members);
      all.insert(all.end(), dontcares.begin(), dontcares.end());
      std::sort(all.begin(), all.end());
      if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
        const std::string& dup = *std::adjacent_find(all.begin(), all.end());
        fail("duplicate symbol '" + dup + "' in face constraint", dup);
      }
      cs.add_face(members, dontcares);
    } else if (kind == "dominance") {
      if (args.size() != 2) fail("dominance takes two names");
      if (args[0] == args[1]) fail("dominance of a symbol over itself");
      cs.add_dominance(args[0], args[1]);
    } else if (kind == "disjunctive") {
      if (args.size() < 3)
        fail("disjunctive takes a parent and >= 2 children");
      for (std::size_t i = 1; i < args.size(); ++i)
        if (args[i] == args[0])
          fail("disjunctive parent '" + args[0] + "' in its own RHS", args[0]);
      cs.add_disjunctive(args[0], {args.begin() + 1, args.end()});
    } else if (kind == "extdisjunctive") {
      if (args.size() < 3 || args[1] != ":")
        fail("expected: extdisjunctive parent : c1 c2 | c3 c4");
      std::vector<std::vector<std::string>> conjs(1);
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "|")
          conjs.emplace_back();
        else
          conjs.back().push_back(args[i]);
      }
      for (const auto& c : conjs)
        if (c.empty()) fail("empty conjunction");
      cs.add_extended_disjunctive(args[0], conjs);
    } else if (kind == "distance2") {
      if (args.size() != 2) fail("distance2 takes two names");
      cs.add_distance2(args[0], args[1]);
    } else if (kind == "nonface") {
      if (args.size() < 2) fail("nonface needs >= 2 members");
      cs.add_nonface(args);
    } else {
      fail("unknown constraint kind '" + kind + "'", kind);
    }
  }
  return cs;
}

}  // namespace

ConstraintSet parse_constraints(const std::string& text) {
  try {
    return parse_impl(text);
  } catch (const ParseFailure& f) {
    throw std::runtime_error("constraint parse error at " +
                             f.err.to_string());
  }
}

std::optional<ConstraintSet> parse_constraints(const std::string& text,
                                               ParseError* error) {
  try {
    return parse_impl(text);
  } catch (const ParseFailure& f) {
    if (error) *error = f.err;
    return std::nullopt;
  }
}

}  // namespace encodesat
