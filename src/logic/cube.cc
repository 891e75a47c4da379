#include "logic/cube.h"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace encodesat {

namespace {

using PartMask = Domain::PartMask;

// The part kernels read the set under test one word at a time through
// word(k) — a cube's word k, or the meet of two cubes' — so testing an
// intersection needs no temporary cube.
template <class Word>
bool part_empty(const PartMask& m, Word word) {
  if (m.first_word == m.end_word) return true;
  if ((word(m.first_word) & m.first_mask) != 0) return false;
  if (m.end_word - m.first_word == 1) return true;
  for (std::uint32_t k = m.first_word + 1; k + 1 < m.end_word; ++k)
    if (word(k) != 0) return false;
  return (word(m.end_word - 1) & m.last_mask) == 0;
}

// A part is full when its complement is empty.
template <class Word>
bool part_full(const PartMask& m, Word word) {
  return part_empty(m, [&word](std::uint32_t k) { return ~word(k); });
}

// The part's bits within word k, for first_word <= k < end_word.
std::uint64_t part_bits(const PartMask& m, std::uint32_t k) {
  if (k == m.first_word) return m.first_mask;
  return k + 1 == m.end_word ? m.last_mask : ~std::uint64_t{0};
}

template <class Word>
bool some_part_empty(const Domain& dom, Word word) {
  if (dom.one_word()) return !dom.all_parts_nonempty(word(0));
  for (int p = 0; p < dom.num_parts(); ++p)
    if (part_empty(dom.part_mask(p), word)) return true;
  return false;
}

auto words_of(const Cube& c) {
  const std::uint64_t* x = c.bits.words();
  return [x](std::uint32_t k) { return x[k]; };
}

auto meet_words(const Cube& a, const Cube& b) {
  const std::uint64_t* x = a.bits.words();
  const std::uint64_t* y = b.bits.words();
  return [x, y](std::uint32_t k) { return x[k] & y[k]; };
}

// The kernels read a cube's words by the domain's layout, so a cube of
// another size would send them out of range. Like Bitset's universe check,
// this throws in every build; it is kept cold so the callers pay only the
// compare.
[[gnu::cold, gnu::noinline]] void throw_size_mismatch(const Domain& dom,
                                                      const Cube& c,
                                                      const char* op) {
  throw std::invalid_argument(std::string(op) + ": cube of " +
                              std::to_string(c.bits.size()) +
                              " positions on a domain of " +
                              std::to_string(dom.total_parts()));
}

void check_fits(const Domain& dom, const Cube& c, const char* op) {
  if (c.bits.size() != static_cast<std::size_t>(dom.total_parts()))
    throw_size_mismatch(dom, c, op);
}

}  // namespace

Cube full_cube(const Domain& dom) {
  Cube c(dom);
  c.bits.set_all();
  return c;
}

bool cube_is_empty(const Domain& dom, const Cube& c) {
  check_fits(dom, c, "cube_is_empty");
  return some_part_empty(dom, words_of(c));
}

bool cube_contains(const Cube& outer, const Cube& inner) {
  return inner.bits.is_subset_of(outer.bits);
}

std::optional<Cube> cube_intersect(const Domain& dom, const Cube& a,
                                   const Cube& b) {
  if (!cubes_intersect(dom, a, b)) return std::nullopt;
  Cube r = a;
  r.bits &= b.bits;
  return r;
}

bool cubes_intersect(const Domain& dom, const Cube& a, const Cube& b) {
  check_fits(dom, a, "cubes_intersect");
  check_fits(dom, b, "cubes_intersect");
  return !some_part_empty(dom, meet_words(a, b));
}

int cube_distance(const Domain& dom, const Cube& a, const Cube& b) {
  check_fits(dom, a, "cube_distance");
  check_fits(dom, b, "cube_distance");
  const auto meet = meet_words(a, b);
  if (dom.one_word()) return dom.empty_parts(meet(0));
  int d = 0;
  for (int p = 0; p < dom.num_parts(); ++p)
    if (part_empty(dom.part_mask(p), meet)) ++d;
  return d;
}

std::optional<Cube> cube_cofactor(const Domain& dom, const Cube& c,
                                  const Cube& p) {
  if (!cubes_intersect(dom, c, p)) return std::nullopt;
  // r = c | ~p, computed part-free since the layout is uniform; the tail
  // of the last word stays clear.
  Cube r = c;
  std::uint64_t* w = r.bits.words();
  const std::uint64_t* q = p.bits.words();
  const std::size_t n = r.bits.num_words();
  for (std::size_t k = 0; k < n; ++k) w[k] |= ~q[k];
  if (const int rem = dom.total_parts() % 64; rem != 0)
    w[n - 1] &= (std::uint64_t{1} << rem) - 1;
  return r;
}

std::vector<Cube> cube_complement(const Domain& dom, const Cube& c) {
  check_fits(dom, c, "cube_complement");
  const std::uint64_t* x = c.bits.words();
  std::vector<Cube> out;
  for (int p = 0; p < dom.num_parts(); ++p) {
    const PartMask& m = dom.part_mask(p);
    if (part_full(m, words_of(c))) continue;
    // Full everywhere except this part, which admits exactly the values
    // c does not.
    Cube r = full_cube(dom);
    std::uint64_t* w = r.bits.words();
    for (std::uint32_t k = m.first_word; k < m.end_word; ++k)
      w[k] &= ~(x[k] & part_bits(m, k));
    out.push_back(std::move(r));
  }
  return out;
}

Cube cube_supercube(const Cube& a, const Cube& b) {
  Cube r = a;
  r.bits |= b.bits;
  return r;
}

bool cube_part_empty(const Domain& dom, const Cube& c, int part) {
  check_fits(dom, c, "cube_part_empty");
  return part_empty(dom.part_mask(part), words_of(c));
}

bool cube_part_full(const Domain& dom, const Cube& c, int part) {
  check_fits(dom, c, "cube_part_full");
  return part_full(dom.part_mask(part), words_of(c));
}

int cube_input_literals(const Domain& dom, const Cube& c) {
  int n = 0;
  for (int v = 0; v < dom.num_inputs(); ++v)
    if (!cube_part_full(dom, c, v)) ++n;
  return n;
}

std::string cube_to_string(const Domain& dom, const Cube& c) {
  std::string s;
  for (int v = 0; v < dom.num_inputs(); ++v) {
    if (dom.input_size(v) == 2) {
      const bool b0 = c.bits.test(static_cast<std::size_t>(dom.pos(v, 0)));
      const bool b1 = c.bits.test(static_cast<std::size_t>(dom.pos(v, 1)));
      s += (b0 && b1) ? '-' : (b1 ? '1' : (b0 ? '0' : '~'));
    } else {
      s += '[';
      for (int j = 0; j < dom.input_size(v); ++j)
        s += c.bits.test(static_cast<std::size_t>(dom.pos(v, j))) ? '1' : '0';
      s += ']';
    }
  }
  s += " | ";
  for (int o = 0; o < dom.num_outputs(); ++o)
    s += c.bits.test(static_cast<std::size_t>(dom.out_pos(o))) ? '1' : '0';
  return s;
}

Cube cube_from_string(const Domain& dom, const std::string& inputs,
                      const std::string& outputs) {
  if (static_cast<int>(inputs.size()) != dom.num_inputs())
    throw std::invalid_argument("cube_from_string: bad input width");
  if (static_cast<int>(outputs.size()) != dom.num_outputs())
    throw std::invalid_argument("cube_from_string: bad output width");
  Cube c(dom);
  for (int v = 0; v < dom.num_inputs(); ++v) {
    if (dom.input_size(v) != 2)
      throw std::invalid_argument("cube_from_string: MV variable in text cube");
    switch (inputs[static_cast<std::size_t>(v)]) {
      case '0': c.bits.set(static_cast<std::size_t>(dom.pos(v, 0))); break;
      case '1': c.bits.set(static_cast<std::size_t>(dom.pos(v, 1))); break;
      case '-':
      case '2':
        c.bits.set(static_cast<std::size_t>(dom.pos(v, 0)));
        c.bits.set(static_cast<std::size_t>(dom.pos(v, 1)));
        break;
      default:
        throw std::invalid_argument("cube_from_string: bad input char");
    }
  }
  for (int o = 0; o < dom.num_outputs(); ++o) {
    const char ch = outputs[static_cast<std::size_t>(o)];
    if (ch == '1')
      c.bits.set(static_cast<std::size_t>(dom.out_pos(o)));
    else if (ch != '0' && ch != '-' && ch != '~')
      throw std::invalid_argument("cube_from_string: bad output char");
  }
  return c;
}

}  // namespace encodesat
