// Tests for the FSM substrate: KISS2 I/O, the symbolic cover, constraint
// generation, benchmark synthesis, and encoded-PLA construction.
#include <gtest/gtest.h>

#include "core/encoder.h"
#include "core/solver.h"
#include "core/verify.h"
#include "fsm/constraints_gen.h"
#include "fsm/encode_fsm.h"
#include "fsm/fsm.h"
#include "fsm/mcnc_like.h"
#include "logic/urp.h"

namespace encodesat {
namespace {

const char* kTinyKiss = R"(
.i 2
.o 1
.s 3
.p 6
.r idle
0- idle idle 0
1- idle run  1
-0 run  run  1
-1 run  done 0
-- done idle -
11 idle done 1
.e
)";

TEST(Kiss2, ParsesHeaderAndTransitions) {
  const Fsm fsm = parse_kiss2_string(kTinyKiss);
  EXPECT_EQ(fsm.num_inputs, 2);
  EXPECT_EQ(fsm.num_outputs, 1);
  EXPECT_EQ(fsm.num_states(), 3u);
  EXPECT_EQ(fsm.transitions.size(), 6u);
  EXPECT_EQ(fsm.reset_state, static_cast<int>(fsm.states.at("idle")));
  EXPECT_EQ(fsm.transitions[1].input, "1-");
  EXPECT_EQ(fsm.states.name(fsm.transitions[1].to), "run");
}

TEST(Kiss2, RoundTrip) {
  const Fsm fsm = parse_kiss2_string(kTinyKiss);
  const Fsm again = parse_kiss2_string(write_kiss2_string(fsm));
  EXPECT_EQ(again.num_inputs, fsm.num_inputs);
  EXPECT_EQ(again.num_states(), fsm.num_states());
  EXPECT_EQ(again.transitions.size(), fsm.transitions.size());
  EXPECT_EQ(write_kiss2_string(again), write_kiss2_string(fsm));
}

TEST(Kiss2, Errors) {
  EXPECT_THROW(parse_kiss2_string(".i 2\n.o 1\n0 a b 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_kiss2_string(".i 1\n.o 1\n0 a b\n"), std::runtime_error);
  EXPECT_THROW(parse_kiss2_string(".i 1\n.o 1\n.p 5\nz a b 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_kiss2_string(".i 1\n.o 1\n.p 3\n0 a b 1\n.e\n"),
               std::runtime_error);
  // Header counts are non-negative integers, whole tokens, in int range.
  for (const char* bad :
       {".i abc\n.o 1\n", ".i 99999999999\n.o 1\n", ".i -3\n.o 1\n",
        ".i 1\n.o 2x\n", ".i 1\n.o 1\n.p -1\n"})
    EXPECT_THROW(parse_kiss2_string(bad), std::runtime_error) << bad;
  try {
    parse_kiss2_string(".i abc\n");
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(".i"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos);
  }
}

TEST(SymbolicCover, OneCubePerTransition) {
  const Fsm fsm = parse_kiss2_string(kTinyKiss);
  const Cover on = fsm_symbolic_cover(fsm);
  EXPECT_EQ(on.size(), fsm.transitions.size());
  // Domain: 2 binary inputs + one 3-valued state var; 3 + 1 outputs.
  EXPECT_EQ(on.domain().num_inputs(), 3);
  EXPECT_EQ(on.domain().input_size(2), 3);
  EXPECT_EQ(on.domain().num_outputs(), 4);
}

TEST(InputConstraints, GroupsComeFromMinimizedCover) {
  // Two states with identical behaviour under input 1 must end up grouped.
  const char* kiss = R"(
.i 1
.o 1
.s 3
1 a c 1
1 b c 1
0 a a 0
0 b b 0
1 c a 0
0 c c 1
)";
  const Fsm fsm = parse_kiss2_string(kiss);
  const ConstraintSet cs = generate_input_constraints(fsm);
  EXPECT_EQ(cs.num_symbols(), 3u);
  bool found_ab = false;
  for (const auto& f : cs.faces()) {
    std::vector<std::string> names;
    for (auto m : f.members) names.push_back(cs.symbols().name(m));
    std::sort(names.begin(), names.end());
    if (names == std::vector<std::string>{"a", "b"}) found_ab = true;
  }
  EXPECT_TRUE(found_ab);
}

TEST(MixedConstraints, FeasibleByConstruction) {
  const Fsm fsm = make_mcnc_like(benchmark_spec("dk512"));
  ConstraintGenOptions opts;
  const ConstraintSet cs = generate_mixed_constraints(fsm, opts);
  EXPECT_TRUE(Solver(cs).feasible());
  EXPECT_EQ(cs.num_symbols(), fsm.num_states());
}

TEST(MixedConstraints, GeneratesOutputConstraintsSomewhere) {
  // At least one machine of the suite must yield dominance constraints,
  // otherwise Table 1 would degenerate to input-only encoding.
  bool any_dom = false;
  for (const char* name : {"dk512", "master", "cse"}) {
    const Fsm fsm = make_mcnc_like(benchmark_spec(name));
    const ConstraintSet cs = generate_mixed_constraints(fsm);
    if (!cs.dominances().empty()) any_dom = true;
  }
  EXPECT_TRUE(any_dom);
}

TEST(McncLike, SuiteCoversPaperBenchmarks) {
  const auto& suite = mcnc_like_suite();
  ASSERT_GE(suite.size(), 16u);
  EXPECT_EQ(benchmark_spec("dk16").states, 27);
  EXPECT_EQ(benchmark_spec("planet").states, 48);
  EXPECT_EQ(benchmark_spec("tbk").states, 32);
  EXPECT_EQ(benchmark_spec("viterbi").states, 68);
  EXPECT_THROW(benchmark_spec("nonexistent"), std::out_of_range);
}

TEST(McncLike, GenerationIsDeterministic) {
  const Fsm a = make_mcnc_like(benchmark_spec("cse"));
  const Fsm b = make_mcnc_like(benchmark_spec("cse"));
  EXPECT_EQ(write_kiss2_string(a), write_kiss2_string(b));
  EXPECT_EQ(a.num_states(), 16u);
  EXPECT_EQ(a.num_inputs, 7);
  EXPECT_GT(a.transitions.size(), a.num_states());
}

TEST(McncLike, EveryStatePresent) {
  const Fsm fsm = make_mcnc_like(benchmark_spec("donfile"));
  std::vector<bool> seen(fsm.num_states(), false);
  for (const auto& t : fsm.transitions) seen[t.from] = true;
  for (std::uint32_t s = 0; s < fsm.num_states(); ++s)
    EXPECT_TRUE(seen[s]) << "state " << s << " has no outgoing transition";
}

TEST(EncodeFsm, PlaShapeAndDc) {
  const Fsm fsm = parse_kiss2_string(kTinyKiss);
  Encoding enc;
  enc.bits = 2;
  enc.codes = {0b00, 0b01, 0b10};
  const Pla pla = encode_fsm(fsm, enc);
  EXPECT_EQ(pla.domain.num_inputs(), 4);   // 2 PI + 2 state bits
  EXPECT_EQ(pla.domain.num_outputs(), 3);  // 2 state bits + 1 PO
  EXPECT_FALSE(pla.on.empty());
  // The "-- done idle -" line contributes a DC output cube.
  EXPECT_FALSE(pla.dc.empty());
}

TEST(EncodeFsm, MinimizedStatsAreConsistent) {
  const Fsm fsm = parse_kiss2_string(kTinyKiss);
  Encoding enc;
  enc.bits = 2;
  enc.codes = {0b00, 0b01, 0b10};
  const auto stats = minimized_fsm_stats(fsm, enc);
  EXPECT_GT(stats.cubes, 0);
  EXPECT_GE(stats.literals, stats.cubes - 1);
}

TEST(EncodeFsm, RejectsWrongEncodingSize) {
  const Fsm fsm = parse_kiss2_string(kTinyKiss);
  Encoding enc;
  enc.bits = 1;
  enc.codes = {0, 1};
  EXPECT_THROW(encode_fsm(fsm, enc), std::invalid_argument);
}

TEST(Pipeline, GenerateEncodeVerify) {
  // End-to-end: synthesize a machine, derive mixed constraints, encode
  // exactly, verify, and build the encoded PLA.
  const Fsm fsm = make_mcnc_like(benchmark_spec("dk512"));
  const ConstraintSet cs = generate_mixed_constraints(fsm);
  SolveOptions opts;
  opts.exact.cover_options.max_nodes = 20000;  // best-effort cover is enough here
  const SolveResult res = Solver(cs).encode(opts);
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
  const auto stats = minimized_fsm_stats(fsm, res.encoding);
  EXPECT_GT(stats.cubes, 0);
}

}  // namespace
}  // namespace encodesat
