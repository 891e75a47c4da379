#include "logic/domain.h"

#include <stdexcept>
#include <string>

namespace encodesat {

namespace {

// Bits lo..63 and 0..hi of a word; lo and hi are in 0..63, so neither
// shifts by 64.
std::uint64_t bits_from(int lo) { return ~std::uint64_t{0} << lo; }
std::uint64_t bits_through(int hi) { return ~std::uint64_t{0} >> (63 - hi); }

}  // namespace

Domain::Domain() {
  static const Domain empty({}, 0);
  layout_ = empty.layout_;
}

Domain::Domain(std::vector<int> input_sizes, int num_outputs) {
  auto layout = std::make_shared<Layout>();
  layout->sizes = std::move(input_sizes);
  layout->sizes.push_back(num_outputs);
  layout->offsets.reserve(layout->sizes.size());
  layout->masks.reserve(layout->sizes.size());
  bool no_empty_part = true;
  int off = 0;
  for (const int len : layout->sizes) {
    if (len < 0)
      throw std::invalid_argument("Domain: negative part size " +
                                  std::to_string(len));
    layout->offsets.push_back(off);
    PartMask m;
    m.first_word = m.end_word = static_cast<std::uint32_t>(off / 64);
    if (len == 0) {
      no_empty_part = false;
    } else {
      const int last = off + len - 1;
      m.end_word = static_cast<std::uint32_t>(last / 64 + 1);
      m.first_mask = bits_from(off % 64);
      m.last_mask = bits_through(last % 64);
      if (m.end_word - m.first_word == 1)
        m.first_mask = m.last_mask = m.first_mask & m.last_mask;
    }
    layout->masks.push_back(m);
    off += len;
  }
  layout->total = off;
  layout->one_word = off <= 64 && no_empty_part;
  if (layout->one_word) {
    for (std::size_t p = 0; p < layout->sizes.size(); ++p) {
      const std::uint64_t top = std::uint64_t{1}
                                << (layout->offsets[p] + layout->sizes[p] - 1);
      layout->high |= top;
      layout->low |= layout->masks[p].first_mask & ~top;
    }
  }
  layout_ = std::move(layout);
}

Domain Domain::binary(int num_inputs, int num_outputs) {
  return Domain(std::vector<int>(static_cast<std::size_t>(num_inputs), 2),
                num_outputs);
}

unsigned long long Domain::num_input_minterms() const {
  unsigned long long n = 1;
  for (int v = 0; v < num_inputs(); ++v)
    n *= static_cast<unsigned long long>(input_size(v));
  return n;
}

}  // namespace encodesat
