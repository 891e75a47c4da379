// Golden-file test pinning the stats tree in `encodesat_cli solve
// --stats-out` telemetry. The CLI embeds SolveResult::stats.to_json()
// verbatim, so this pins the same serialization at the library level:
// stage names, tree structure, key set and key order are all frozen by a
// committed golden file. Volatile numbers (elapsed_s always; work/items
// for the schema comparison) are normalized to 0 — the *shape* is the
// contract, see docs/API.md. Regenerate with:
//
//   ./build/tests/encodesat_tests --gtest_also_run_disabled_tests
//       --gtest_filter='*StatsJsonGolden*PrintCurrent'
//
// and paste the output into tests/data/solve_stats.golden.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "core/solver.h"

namespace encodesat {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ConstraintSet mixed_constraints() {
  return parse_constraints(read_file(
      std::string(ENCODESAT_EXAMPLES_DATA_DIR) + "/mixed.constraints"));
}

// Zeroes the wall-clock field only: work/items stay exact.
std::string normalize_elapsed(std::string json) {
  static const std::regex kElapsed("\"elapsed_s\":[0-9.eE+-]+");
  return std::regex_replace(json, kElapsed, "\"elapsed_s\":0");
}

// Zeroes every numeric value, leaving names/structure/truncation: the
// schema comparison against the golden file.
std::string normalize_numbers(std::string json) {
  static const std::regex kNumber(":[0-9.eE+-]+");
  return std::regex_replace(json, kNumber, ":0");
}

TEST(StatsJsonGolden, SolveStatsSchemaMatchesGoldenFile) {
  const SolveResult res = Solver(mixed_constraints()).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  const std::string golden =
      read_file(std::string(ENCODESAT_TESTS_DATA_DIR) +
                "/solve_stats.golden.json");
  // The golden file is committed with numbers already zeroed; tolerate a
  // trailing newline from editors.
  std::string want = golden;
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r'))
    want.pop_back();
  EXPECT_EQ(normalize_numbers(res.stats.to_json()), want)
      << "stats-json schema drifted; update tests/data/solve_stats.golden.json"
      << " (see header comment) and document the change in docs/API.md";
}

TEST(StatsJsonGolden, StatsJsonDeterministicAcrossThreads) {
  // The determinism contract (docs/API.md): threads=4 must match the
  // sequential run bit-for-bit, including the stage tree and its exact
  // work/items counters — only wall-clock may differ.
  SolveOptions seq;
  seq.exec.threads = 1;
  SolveOptions par;
  par.exec.threads = 4;
  const ConstraintSet cs = mixed_constraints();
  const SolveResult a = Solver(cs).encode(seq);
  const SolveResult b = Solver(cs).encode(par);
  EXPECT_EQ(normalize_elapsed(a.stats.to_json()),
            normalize_elapsed(b.stats.to_json()));
  EXPECT_EQ(a.encoding.codes, b.encoding.codes);
}

TEST(StatsJsonGolden, TruncationFieldShapeIsUniform) {
  // Budget expiry must surface as the documented uniform shape: status
  // kTruncated, truncated == true, truncation naming the tripped budget —
  // and the stats tree still serializes.
  SolveOptions so;
  so.exec.max_work = 1;  // trip immediately
  const SolveResult res = Solver(mixed_constraints()).encode(so);
  EXPECT_EQ(res.status, SolveResult::Status::kTruncated);
  EXPECT_TRUE(res.truncated);
  EXPECT_NE(res.truncation, Truncation::kNone);
  EXPECT_EQ(res.truncated, res.truncation != Truncation::kNone);
  EXPECT_NE(res.stats.to_json().find("\"truncation\""), std::string::npos);
}

// Not a check: prints the current normalized schema for regeneration.
TEST(StatsJsonGolden, DISABLED_PrintCurrent) {
  const SolveResult res = Solver(mixed_constraints()).encode();
  std::printf("%s\n", normalize_numbers(res.stats.to_json()).c_str());
}

}  // namespace
}  // namespace encodesat
