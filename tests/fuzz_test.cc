// Tests for the differential fuzzing subsystem: generator determinism and
// mix presets, the agreement-rule driver, thread-count report identity,
// the delta-debugging minimizer, the reproducer format, and the
// infeasibility-witness checker.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/solver.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"
#include "fuzz/minimizer.h"
#include "fuzz/reproducer.h"

namespace encodesat {
namespace {

// Cheap driver configuration for unit tests (the smoke ctest covers the
// full-budget path).
DifferentialOptions fast_options() {
  DifferentialOptions opts;
  opts.max_work_per_case = 1'000'000;
  opts.max_cover_nodes = 1'000;
  return opts;
}

TEST(FuzzGenerator, SameSeedSameCase) {
  const std::uint64_t s = fuzz_case_seed(42, 7);
  const ConstraintSet a = generate_case(s);
  const ConstraintSet b = generate_case(s);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(FuzzGenerator, CaseSeedsAreOrderFree) {
  // Per-case seeds depend only on (run seed, index), never on generation
  // order — the property that makes the driver schedule-independent.
  EXPECT_NE(fuzz_case_seed(1, 0), fuzz_case_seed(1, 1));
  EXPECT_NE(fuzz_case_seed(1, 0), fuzz_case_seed(2, 0));
  EXPECT_EQ(fuzz_case_seed(9, 3), fuzz_case_seed(9, 3));
}

TEST(FuzzGenerator, CasesRoundTripThroughGrammar) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const ConstraintSet cs = generate_case(fuzz_case_seed(11, i));
    ParseError err;
    const auto again = parse_constraints(cs.to_string(), &err);
    ASSERT_TRUE(again.has_value()) << "case " << i << ": "
                                   << err.to_string();
    EXPECT_EQ(again->to_string(), cs.to_string()) << "case " << i;
    EXPECT_EQ(again->num_symbols(), cs.num_symbols()) << "case " << i;
  }
}

TEST(FuzzGenerator, MixPresets) {
  ASSERT_TRUE(generator_mix("default").has_value());
  ASSERT_TRUE(generator_mix("input").has_value());
  ASSERT_TRUE(generator_mix("output").has_value());
  ASSERT_TRUE(generator_mix("extensions").has_value());
  ASSERT_TRUE(generator_mix("infeasible").has_value());
  EXPECT_FALSE(generator_mix("bogus").has_value());

  // The input preset emits only face constraints (always feasible).
  const GeneratorOptions input = *generator_mix("input");
  for (std::uint64_t i = 0; i < 20; ++i) {
    const ConstraintSet cs = generate_case(fuzz_case_seed(3, i), input);
    EXPECT_FALSE(cs.has_output_constraints());
    EXPECT_FALSE(cs.has_extension_constraints());
    EXPECT_FALSE(cs.faces().empty());
  }

  // The infeasible preset mutates every case.
  const GeneratorOptions inf = *generator_mix("infeasible");
  EXPECT_EQ(inf.infeasible_mutation_rate, 1.0);
}

TEST(FuzzRuleNames, RoundTrip) {
  for (FuzzRule r : {FuzzRule::kOracle, FuzzRule::kFeasibility,
                     FuzzRule::kLocalUnsound, FuzzRule::kWitness,
                     FuzzRule::kThreads, FuzzRule::kStats,
                     FuzzRule::kBaselineFeasible, FuzzRule::kBaselineCodes,
                     FuzzRule::kMinimality, FuzzRule::kBoundedCodes,
                     FuzzRule::kCost, FuzzRule::kCounters, FuzzRule::kCache,
                     FuzzRule::kBinateTruncation}) {
    FuzzRule back;
    ASSERT_TRUE(fuzz_rule_from_name(fuzz_rule_name(r), &back));
    EXPECT_EQ(back, r);
  }
  EXPECT_FALSE(fuzz_rule_from_name("nonsense", nullptr));
}

TEST(FuzzDifferential, CleanOnKnownFeasibleAndInfeasible) {
  const ConstraintSet feasible = parse_constraints("face a b c\nsymbol d");
  const FuzzCaseResult rf = run_differential_case(feasible, fast_options());
  EXPECT_TRUE(rf.ok());
  EXPECT_TRUE(rf.feasible);
  EXPECT_TRUE(rf.encoded);

  // Mutual dominance forces a == b: infeasible with distinct codes.
  const ConstraintSet infeasible =
      parse_constraints("dominance a b\ndominance b a");
  const FuzzCaseResult ri = run_differential_case(infeasible, fast_options());
  EXPECT_TRUE(ri.ok());
  EXPECT_FALSE(ri.feasible);
  EXPECT_FALSE(ri.encoded);
}

TEST(FuzzDifferential, ReportIdenticalAcrossDriverThreads) {
  FuzzRunOptions o1;
  o1.differential = fast_options();
  o1.threads = 1;
  FuzzRunOptions o4 = o1;
  o4.threads = 4;
  const FuzzReport r1 = run_fuzz(17, 40, o1);
  const FuzzReport r4 = run_fuzz(17, 40, o4);
  EXPECT_EQ(r1.summary(), r4.summary());
  ASSERT_EQ(r1.divergent.size(), r4.divergent.size());
  for (std::size_t i = 0; i < r1.divergent.size(); ++i) {
    EXPECT_EQ(r1.divergent[i].index, r4.divergent[i].index);
    EXPECT_EQ(r1.divergent[i].constraints_text,
              r4.divergent[i].constraints_text);
  }
}

TEST(FuzzMinimizer, ShrinksToThePlantedCore) {
  // A mutual-dominance core buried under irrelevant constraints; the
  // "still infeasible" predicate should strip everything else.
  const ConstraintSet cs = parse_constraints(R"(
    face a b c
    face c d e
    dominance d e
    dominance x y
    dominance y x
    disjunctive a b c
  )");
  Solver probe(cs);
  ASSERT_FALSE(probe.feasibility().feasible);

  int probes = 0;
  const auto still_infeasible = [&](const ConstraintSet& c) {
    ++probes;
    return !Solver(c).feasibility().feasible;
  };
  const MinimizeResult min = minimize_divergence(cs, still_infeasible);
  EXPECT_EQ(min.constraints.dominances().size(), 2u);
  EXPECT_TRUE(min.constraints.faces().empty());
  EXPECT_TRUE(min.constraints.disjunctives().empty());
  EXPECT_EQ(min.constraints.num_symbols(), 2u);
  EXPECT_GT(min.removed_constraints, 0);
  EXPECT_GT(min.removed_symbols, 0);
  EXPECT_EQ(min.probes, probes);
  // The minimized case still diverges and still round-trips.
  EXPECT_FALSE(Solver(min.constraints).feasibility().feasible);
  const ConstraintSet again = parse_constraints(min.constraints.to_string());
  EXPECT_EQ(again.to_string(), min.constraints.to_string());
}

TEST(FuzzMinimizer, RemovingUnreferencedSymbolsRemapsEveryField) {
  // x and y sit between referenced symbols and no constraint names them.
  // The predicate holds only while every constraint line renders as
  // before, so each symbol removal must shift every later id in every
  // field of every class.
  const ConstraintSet cs = parse_constraints(R"(
    dominance a b
    symbol x
    face b c [d]
    symbol y
    disjunctive e a c
    extdisjunctive f : a b | c e
    distance2 g a
    nonface b d g
  )");
  const auto constraint_lines = [](const ConstraintSet& c) {
    std::istringstream in(c.to_string());
    std::string out;
    for (std::string line; std::getline(in, line);)
      if (line.rfind("symbol ", 0) != 0) out += line + "\n";
    return out;
  };
  const std::string lines = constraint_lines(cs);
  const MinimizeResult min = minimize_divergence(
      cs, [&](const ConstraintSet& c) { return constraint_lines(c) == lines; });
  EXPECT_EQ(min.removed_symbols, 2);
  EXPECT_EQ(min.removed_constraints, 0);
  EXPECT_EQ(min.removed_elements, 0);
  EXPECT_EQ(min.constraints.symbols().names(),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g"}));
  EXPECT_EQ(min.constraints.to_string(), lines);
}

TEST(FuzzMinimizer, ReturnsInputWhenPredicateFailsOnEntry) {
  const ConstraintSet cs = parse_constraints("face a b c");
  const MinimizeResult min =
      minimize_divergence(cs, [](const ConstraintSet&) { return false; });
  EXPECT_EQ(min.constraints.to_string(), cs.to_string());
  EXPECT_EQ(min.removed_constraints, 0);
}

TEST(FuzzReproducer, RoundTrip) {
  FuzzReproducer r;
  r.run_seed = 123;
  r.case_index = 45;
  r.rule = "oracle";
  r.detail = "multi\nline detail";
  r.minimized = true;
  r.constraints = parse_constraints("face a b c\ndominance a b\nsymbol q");

  const std::string text = reproducer_to_text(r);
  const auto back = parse_reproducer(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->run_seed, 123u);
  EXPECT_EQ(back->case_index, 45u);
  EXPECT_EQ(back->rule, "oracle");
  EXPECT_EQ(back->detail, "multi line detail");  // flattened to one line
  EXPECT_TRUE(back->minimized);
  EXPECT_EQ(back->constraints.to_string(), r.constraints.to_string());

  // The body stays a plain constraint file.
  const ConstraintSet plain = parse_constraints(text);
  EXPECT_EQ(plain.num_symbols(), 4u);

  EXPECT_EQ(reproducer_filename(r), "seed123_case45_oracle.repro");
}

TEST(FuzzWitness, ChecksInfeasibilityEvidence) {
  const ConstraintSet cs =
      parse_constraints("dominance a b\ndominance b a\nsymbol c");
  FeasibilityResult feas = Solver(cs).feasibility();
  ASSERT_FALSE(feas.feasible);
  std::string why;
  EXPECT_TRUE(verify_infeasibility_witness(cs, feas, &why)) << why;

  // Tampered evidence must be rejected.
  FeasibilityResult bogus = feas;
  bogus.feasible = true;
  EXPECT_FALSE(verify_infeasibility_witness(cs, bogus, &why));

  FeasibilityResult empty_uncovered = feas;
  empty_uncovered.uncovered.clear();
  EXPECT_FALSE(verify_infeasibility_witness(cs, empty_uncovered, &why));
}

}  // namespace
}  // namespace encodesat
