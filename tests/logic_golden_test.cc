// Pins the cubes the two-level layer produces: ESPRESSO (full and single
// pass) and URP complement on the bundled PLA and on seeded random covers
// over domains that sit on both sides of every word boundary, plus the
// Fig. 9 face costs of three Table 2 machines. The cube kernels can be
// rewritten for speed only if every cube, and the order the cubes come in,
// stays the same; this file is the check. Regenerate with
//
//   ./build/tests/encodesat_tests --gtest_also_run_disabled_tests
//       --gtest_filter='LogicGolden.DISABLED_PrintCurrent'
//
// only for a deliberate change to ESPRESSO's or URP's algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bounded.h"
#include "core/cost.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "logic/espresso.h"
#include "logic/pla.h"
#include "logic/urp.h"
#include "util/rng.h"

namespace encodesat {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void add_minimizations(std::string& out, const std::string& name,
                       const Cover& on, const Cover& dc) {
  EspressoOptions single;
  single.single_pass = true;
  out += "== " + name + " espresso\n" + espresso(on, dc).to_string();
  out += "== " + name + " espresso single_pass\n" +
         espresso(on, dc, single).to_string();
  out += "== " + name + " complement\n" + complement(on).to_string();
}

// A random cube over dom. Only the parts in `active` get a literal (each
// a random non-empty value subset, or full); the rest stay full, so the
// cubes of one cover overlap and ESPRESSO has merges to find. The output
// part is a random non-empty subset.
Cube random_cube(const Domain& dom, const std::vector<int>& active, Rng& rng) {
  Cube c = full_cube(dom);
  auto literal = [&](int off, int len) {
    if (rng.next_bool(0.4)) return;
    Bitset keep(static_cast<std::size_t>(len));
    while (keep.empty() || keep.count() == static_cast<std::size_t>(len)) {
      keep.clear();
      for (int i = 0; i < len; ++i)
        if (rng.next_bool()) keep.set(static_cast<std::size_t>(i));
    }
    for (int i = 0; i < len; ++i)
      if (!keep.test(static_cast<std::size_t>(i)))
        c.bits.reset(static_cast<std::size_t>(off + i));
  };
  for (int v : active) literal(dom.input_offset(v), dom.input_size(v));
  if (dom.num_outputs() > 1)
    literal(dom.output_offset(), dom.num_outputs());
  return c;
}

void add_random_covers(std::string& out, const std::string& name,
                       const Domain& dom, std::uint64_t seed) {
  Rng rng(seed);
  // Up to six inputs carry literals: the last one (next to the output
  // part, across a word boundary when the width is just over 64 or 128)
  // and the rest drawn at random.
  const std::size_t num_active =
      std::min<std::size_t>(6, static_cast<std::size_t>(dom.num_inputs()));
  std::vector<int> active = {dom.num_inputs() - 1};
  while (active.size() < num_active) {
    const int v = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(dom.num_inputs())));
    bool dup = false;
    for (int a : active) dup = dup || a == v;
    if (!dup) active.push_back(v);
  }
  Cover on(dom), dc(dom);
  for (int i = 0; i < 9; ++i) on.add(random_cube(dom, active, rng));
  for (int i = 0; i < 2; ++i) dc.add(random_cube(dom, active, rng));
  add_minimizations(out, name, on, dc);
}

std::string golden_logic_text() {
  std::string out;
  const Pla pla = read_pla_string(
      read_file(std::string(ENCODESAT_EXAMPLES_DATA_DIR) + "/sample.pla"));
  add_minimizations(out, "sample.pla", pla.on, pla.dc);

  // 13, 64, 65, 128 and 129 positions, then a multi-valued domain whose
  // 30-valued part spans positions 43..72, across words 0 and 1.
  add_random_covers(out, "binary(6,1)", Domain::binary(6, 1), 13);
  add_random_covers(out, "binary(31,2)", Domain::binary(31, 2), 64);
  add_random_covers(out, "binary(32,1)", Domain::binary(32, 1), 65);
  add_random_covers(out, "binary(63,2)", Domain::binary(63, 2), 128);
  add_random_covers(out, "binary(64,1)", Domain::binary(64, 1), 129);
  add_random_covers(out, "mv(3,40,30,5;4)", Domain({3, 40, 30, 5}, 4), 82);

  // One output over 1-6 binary inputs, the shape of P-3's face costs, each
  // with its two DC cubes; six inputs fill a 64-minterm space. From three
  // inputs up, each seed is one whose minimized cover keeps more than one
  // cube (with one or two inputs, nine cubes and two DC cubes of this
  // generator leave at most one at any seed).
  const std::pair<int, std::uint64_t> one_output[] = {
      {1, 220}, {2, 201}, {3, 223}, {4, 221}, {5, 225}};
  for (const auto& [n, seed] : one_output)
    add_random_covers(out, "binary(" + std::to_string(n) + ",1)",
                      Domain::binary(n, 1), seed);
  add_random_covers(out, "binary(6,1), second seed", Domain::binary(6, 1),
                    225);

  // The P-3 flow of Table 2 on three of its machines.
  for (const char* name : {"dk512", "bbsse", "cse"}) {
    const Fsm fsm = make_mcnc_like(benchmark_spec(name));
    const ConstraintSet cs = generate_input_constraints(fsm);
    out += std::string("== ") + name + " input constraints\n" + cs.to_string();
    BoundedEncodeOptions opts;
    opts.cost = CostKind::kCubes;
    opts.max_selection_evals = 60;
    const BoundedEncodeResult r = bounded_encode(
        cs, minimum_code_length(fsm.num_states()), opts);
    out += std::string("== ") + name + " bounded_encode\n" +
           r.encoding.to_string(cs.symbols()) + "\ncost violated=" +
           std::to_string(r.cost.violated_faces) +
           " cubes=" + std::to_string(r.cost.cubes) +
           " literals=" + std::to_string(r.cost.literals) + "\n";
    const Cover unused = unused_code_dontcares(r.encoding);
    for (std::size_t i = 0; i < cs.faces().size(); ++i) {
      for (const bool fast : {true, false}) {
        const FaceCost fc = evaluate_face_cost(r.encoding, cs, cs.faces()[i],
                                               unused, fast);
        out += "face " + std::to_string(i) + (fast ? " fast" : " full") +
               ": satisfied=" + std::to_string(fc.satisfied) +
               " cubes=" + std::to_string(fc.cubes) +
               " literals=" + std::to_string(fc.literals) + "\n";
      }
    }
  }
  return out;
}

TEST(LogicGolden, CubesMatchGoldenFile) {
  const std::string golden =
      read_file(std::string(ENCODESAT_TESTS_DATA_DIR) + "/logic_v1.golden");
  EXPECT_EQ(golden_logic_text(), golden);
}

// Not a check: prints the current rendering for regeneration.
TEST(LogicGolden, DISABLED_PrintCurrent) {
  std::printf("%s", golden_logic_text().c_str());
}

}  // namespace
}  // namespace encodesat
