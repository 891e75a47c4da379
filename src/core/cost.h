// Cost functions for bounded-length encoding (Section 7, Figure 9).
//
// For each face constraint I and a given encoding, define the logic
// function F_I over the code space whose ON-set is the member codes,
// OFF-set the codes of symbols outside the constraint, and DC-set the
// unused codes (plus the codes of encoding don't-care symbols). A satisfied
// constraint minimizes to a single product term; the product terms /
// literals of each F_I, minimized separately and summed over the
// constraints, measure how well a fixed-length encoding realizes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/constraints.h"
#include "core/encoding.h"
#include "logic/cover.h"

namespace encodesat {

enum class CostKind {
  kViolatedFaces,  ///< number of face constraints not satisfied
  kCubes,          ///< product terms of the minimized encoded constraints
  kLiterals,       ///< input literals of the minimized encoded constraints
};

struct EncodingCost {
  int violated_faces = 0;
  int cubes = 0;
  int literals = 0;

  int by_kind(CostKind k) const {
    switch (k) {
      case CostKind::kViolatedFaces: return violated_faces;
      case CostKind::kCubes: return cubes;
      case CostKind::kLiterals: return literals;
    }
    return 0;
  }
};

/// Don't-care cover of the unused code points, over the single-output
/// Domain::binary(enc.bits, 1) — shared by every per-face evaluation. It
/// stands for a point set, not a cube list: up to kWordOracleMaxInputs
/// bits it is one minterm cube per unused code, in code order, and wider
/// the URP complement of the used codes.
Cover unused_code_dontcares(const Encoding& enc);

/// Cost of one face constraint: satisfied => exactly one product term by
/// construction; violated => the ESPRESSO-minimized member cover.
struct FaceCost {
  bool satisfied = false;
  int cubes = 0;
  int literals = 0;
};
FaceCost evaluate_face_cost(const Encoding& enc, const ConstraintSet& cs,
                            const FaceConstraint& f, const Cover& unused_dc,
                            bool fast);

/// The single-pass face costs of one bounded_encode call's selection and
/// polish, each worked out once. A table of kSlots entries is keyed on
/// what the cost reads: the code length, the used-code set, the face's
/// don't-care codes and its member codes in order. A key that lands on a
/// taken slot replaces its entry. Faces of more than kMaxMembers members
/// and codes wider than kWordOracleMaxInputs bits bypass the table. The
/// unused-code DC cover is built only on a miss, and only when the
/// used-code set is not the one it was last built for.
class FaceCostMemo {
 public:
  static constexpr std::size_t kSlots = 4096;
  static constexpr std::size_t kMaxMembers = 9;

  /// evaluate_face_cost(enc, cs, f, unused_code_dontcares(enc), true), for
  /// an encoding whose codes are distinct and fit in enc.bits: the key
  /// holds codes, not symbols.
  FaceCost cost(const Encoding& enc, const ConstraintSet& cs,
                const FaceConstraint& f);

 private:
  // Bit m of `used` and `dontcares` stands for code m. `face` holds the
  // member codes six bits each, the first lowest, then from bit 54 the
  // member count and the code length; bit 63 is set in every key and
  // clear in an empty slot.
  struct Key {
    std::uint64_t used = 0;
    std::uint64_t dontcares = 0;
    std::uint64_t face = 0;
    bool operator==(const Key&) const = default;
  };
  struct Slot {
    Key key;
    std::uint16_t cubes = 0;
    std::uint16_t literals = 0;
    bool satisfied = false;
  };

  const Cover& unused_dc(const Encoding& enc);

  std::vector<Slot> slots_;
  Cover dc_;
  int dc_bits_ = -1;
  // The used-code set dc_ was built for, and the one of the current call:
  // one word up to kWordOracleMaxInputs bits, else the codes in order.
  std::vector<std::uint64_t> dc_used_, used_;
};

/// Evaluates all three cost functions (sums of per-face costs). `fast`
/// uses the single-pass ESPRESSO mode (for inner loops of the heuristic
/// encoder and the annealer).
EncodingCost evaluate_encoding_cost(const Encoding& enc,
                                    const ConstraintSet& cs,
                                    bool fast = false);

}  // namespace encodesat
