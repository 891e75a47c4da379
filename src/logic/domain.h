// Variable domain for multi-valued, multi-output logic covers in
// positional-cube notation (Brayton et al., "Logic Minimization Algorithms
// for VLSI Synthesis", 1984).
//
// A Domain describes k multi-valued input variables (a binary variable is
// the 2-valued special case) and one output "variable" with one position per
// output function. Every cube over the domain is a single Bitset with one
// bit per (variable, value) pair followed by one bit per output; bit set
// means the value is admitted (inputs) or the output is asserted.
//
// The layout is computed once and shared, immutable, by every copy, so
// copying a Domain (every Cover holds one) costs a reference-count bump.
// It carries the word masks the cube kernels (logic/cube.cc) test parts
// with.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace encodesat {

class Domain {
 public:
  /// Where one part lies in a cube's words: words [first_word, end_word),
  /// with first_mask selecting the part's bits in the first of them and
  /// last_mask in the last (the same mask when the part fits one word).
  /// A part with no positions has first_word == end_word.
  struct PartMask {
    std::uint32_t first_word = 0;
    std::uint32_t end_word = 0;
    std::uint64_t first_mask = 0;
    std::uint64_t last_mask = 0;
  };

  /// The empty domain: no inputs, no outputs.
  Domain();

  /// input_sizes[v] is the number of values of input variable v and
  /// num_outputs the number of output positions; both may be 0, and a part
  /// with no positions makes every cube over the domain empty. Throws
  /// std::invalid_argument on a negative size.
  Domain(std::vector<int> input_sizes, int num_outputs);

  /// Convenience: n binary inputs, m outputs.
  static Domain binary(int num_inputs, int num_outputs);

  int num_inputs() const { return num_parts() - 1; }
  int num_outputs() const { return layout_->sizes.back(); }
  int input_size(int var) const { return part_size(var); }

  /// First bit position of input variable var.
  int input_offset(int var) const { return part_offset(var); }
  /// First bit position of the output part.
  int output_offset() const { return layout_->offsets.back(); }
  /// Total bit positions of a cube over this domain.
  int total_parts() const { return layout_->total; }

  /// Bit position of value `value` of input variable `var`.
  int pos(int var, int value) const { return part_offset(var) + value; }
  /// Bit position of output `out`.
  int out_pos(int out) const { return output_offset() + out; }

  /// The uniform part view of URP and the cube kernels: parts
  /// 0..num_inputs()-1 are the input variables, part num_inputs() is the
  /// output part.
  int num_parts() const { return static_cast<int>(layout_->sizes.size()); }
  int part_offset(int part) const {
    return layout_->offsets[static_cast<std::size_t>(part)];
  }
  int part_size(int part) const {
    return layout_->sizes[static_cast<std::size_t>(part)];
  }
  const PartMask& part_mask(int part) const {
    return layout_->masks[static_cast<std::size_t>(part)];
  }

  /// True when a cube fits one word (at most 64 positions) and every part
  /// has a position. Then the two tests below read a cube's word 0 and
  /// check all its parts at once.
  bool one_word() const { return layout_->one_word; }
  /// one_word() domains: true iff every part of cube word x is non-empty.
  bool all_parts_nonempty(std::uint64_t x) const {
    return nonempty_part_bits(x) == layout_->high;
  }
  /// one_word() domains: the number of parts of cube word x that are empty.
  int empty_parts(std::uint64_t x) const {
    return num_parts() - std::popcount(nonempty_part_bits(x));
  }

  bool operator==(const Domain& o) const {
    return layout_ == o.layout_ || layout_->sizes == o.layout_->sizes;
  }
  bool operator!=(const Domain& o) const { return !(*this == o); }

  /// Number of input minterms = product of input sizes (useful only for
  /// small domains; callers guard against overflow by construction).
  unsigned long long num_input_minterms() const;

 private:
  struct Layout {
    std::vector<int> sizes;    // per part: input sizes, then num_outputs
    std::vector<int> offsets;  // per part: first bit position
    std::vector<PartMask> masks;
    int total = 0;
    bool one_word = false;
    std::uint64_t low = 0;
    std::uint64_t high = 0;
  };

  // With L = layout_->low (every part position but each part's highest)
  // and H = layout_->high (each part's highest): ((((x & L) + L) | x) & H)
  // has a part's high bit set iff that part of x is non-empty, since adding
  // L carries into a part's high bit exactly when one of its low bits is
  // set.
  std::uint64_t nonempty_part_bits(std::uint64_t x) const {
    const std::uint64_t lo = layout_->low;
    return (((x & lo) + lo) | x) & layout_->high;
  }

  std::shared_ptr<const Layout> layout_;
};

}  // namespace encodesat
