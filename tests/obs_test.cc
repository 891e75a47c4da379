// Observability subsystem (src/obs): span tracer, counter registry,
// telemetry report. The deterministic surfaces under test are the ones the
// differential fuzzer and CI lean on: balanced spans under any drop
// pattern, span-name multisets and counter fingerprints identical across
// thread counts, and the telemetry-v2 schema pinned by a golden file
// (numbers normalized — shape is the contract). Regenerate the golden with:
//
//   ./build/tests/encodesat_tests --gtest_also_run_disabled_tests
//       --gtest_filter='*TelemetryGolden*PrintCurrent'
//
// and paste the output into tests/data/solve_telemetry.golden.json.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.h"
#include "obs/counters.h"
#include "obs/reqlog.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "service/json.h"

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

// --- Tracer ----------------------------------------------------------------

TEST(Tracer, RecordsBalancedSpans) {
  Tracer t;
  {
    TraceScope outer(&t, "outer");
    TraceScope inner(&t, "inner");
  }
  { TraceScope again(&t, "outer"); }
  EXPECT_EQ(t.event_count(), 6u);  // 3 begins + 3 ends
  EXPECT_EQ(t.dropped_events(), 0u);
  EXPECT_TRUE(t.spans_balanced());
  const auto counts = t.span_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at("outer"), 2u);
  EXPECT_EQ(counts.at("inner"), 1u);
}

TEST(Tracer, TraceScopeOnNullSinkIsANoop) {
  // ExecContext{} carries no tracer; TRACE_SCOPE must compile to nothing
  // observable at such call sites.
  const ExecContext ctx{};
  TRACE_SCOPE(ctx, "nothing");
  SUCCEED();
}

TEST(Tracer, DropPolicyKeepsEveryThreadBalanced) {
  // Capacity 4 with nesting depth 3: the log fills mid-tree. Begins past
  // capacity are dropped with their matching ends; ends for *recorded*
  // begins are appended even past capacity, so the sequence stays a
  // balanced nesting string and the footer owns the drop count.
  Tracer t(4);
  for (int i = 0; i < 8; ++i) {
    TraceScope a(&t, "a");
    TraceScope b(&t, "b");
    TraceScope c(&t, "c");
  }
  EXPECT_TRUE(t.spans_balanced());
  EXPECT_GT(t.dropped_events(), 0u);
  EXPECT_GE(t.event_count(), 4u);
  // Each dropped span lost a begin and an end; the span total is the
  // lossiness signal the footer and obs.trace.dropped report.
  EXPECT_GT(t.dropped_spans(), 0u);
  EXPECT_EQ(t.dropped_events(), 2 * t.dropped_spans());
  std::ostringstream json;
  t.write_chrome_trace(json);
  EXPECT_NE(json.str().find("\"dropped_events\""), std::string::npos);
  EXPECT_NE(json.str().find("\"dropped_spans\":" +
                            std::to_string(t.dropped_spans())),
            std::string::npos);
}

TEST(Tracer, LosslessTraceReportsZeroDroppedSpans) {
  Tracer t;
  { TraceScope s(&t, "solve"); }
  EXPECT_EQ(t.dropped_spans(), 0u);
  std::ostringstream json;
  t.write_chrome_trace(json);
  EXPECT_NE(json.str().find("\"dropped_spans\":0"), std::string::npos);
}

TEST(Tracer, ChromeTraceJsonShape) {
  Tracer t;
  { TraceScope s(&t, "solve"); }
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"encodesat-trace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"events\":2"), std::string::npos);
}

TEST(Tracer, ThreadsGetSeparateTids) {
  Tracer t;
  { TraceScope main_span(&t, "main"); }
  std::thread worker([&t] { TraceScope s(&t, "worker"); });
  worker.join();
  EXPECT_EQ(t.event_count(), 4u);
  EXPECT_TRUE(t.spans_balanced());
  std::ostringstream out;
  t.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"tid\":1"), std::string::npos);
  EXPECT_NE(out.str().find("\"tid\":2"), std::string::npos);
}

TEST(Tracer, SolveSpanMultisetIdenticalAcrossThreads) {
  // The structural face of the determinism contract: the multiset of span
  // names a solve emits is a pure function of the inputs, not of the
  // thread count (only timestamps and tid assignment may differ).
  const ConstraintSet cs = mixed_constraints();
  Tracer t1, t4;
  SolveOptions o1, o4;
  o1.exec.threads = 1;
  o1.exec.tracer = &t1;
  o4.exec.threads = 4;
  o4.exec.tracer = &t4;
  const SolveResult r1 = Solver(cs).encode(o1);
  const SolveResult r4 = Solver(cs).encode(o4);
  ASSERT_EQ(r1.status, SolveResult::Status::kEncoded);
  ASSERT_EQ(r4.status, SolveResult::Status::kEncoded);
  EXPECT_TRUE(t1.spans_balanced());
  EXPECT_TRUE(t4.spans_balanced());
  EXPECT_GT(t1.event_count(), 0u);
  EXPECT_EQ(t1.span_counts(), t4.span_counts());
  // The existing StageScope tree and the explicit TRACE_SCOPE sites both
  // land in the same trace.
  const auto counts = t1.span_counts();
  EXPECT_EQ(counts.count("solve"), 1u);
  EXPECT_EQ(counts.count("prime_generation"), 1u);
  EXPECT_EQ(counts.count("sop_fold"), 1u);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, RegisterAddSnapshot) {
  MetricsRegistry m;
  m.counter("b.second")->add(2);
  m.counter("a.first")->add(40);
  m.counter("a.first")->add(2);
  m.counter("zero.registered");  // registration at value 0 still appears
  const auto samples = m.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.first");  // name-sorted
  EXPECT_EQ(samples[0].value, 42u);
  EXPECT_EQ(samples[1].name, "b.second");
  EXPECT_EQ(samples[2].name, "zero.registered");
  EXPECT_EQ(samples[2].value, 0u);
}

TEST(Metrics, StablePointersAndRecordMax) {
  MetricsRegistry m;
  MetricsRegistry::Metric* peak = m.counter("peak", true);
  for (int i = 0; i < 100; ++i) m.counter("filler_" + std::to_string(i));
  peak->record_max(7);
  peak->record_max(3);  // lower value must not regress the high-water mark
  EXPECT_EQ(m.counter("peak")->value(), 7u);
  EXPECT_EQ(m.counter("peak"), peak);  // map-backed: address is stable
}

TEST(Metrics, FingerprintExcludesNonFingerprintMetrics) {
  MetricsRegistry a, b;
  a.counter("det")->add(5);
  b.counter("det")->add(5);
  a.counter("wall_ms", /*in_fingerprint=*/false)->add(123);
  b.counter("wall_ms", /*in_fingerprint=*/false)->add(987);
  EXPECT_EQ(a.fingerprint(), "det=5;");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint_hash(), b.fingerprint_hash());
  a.counter("det")->add(1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Metrics, MergeFromAccumulates) {
  MetricsRegistry total, run;
  total.counter("x")->add(1);
  run.counter("x")->add(2);
  run.counter("y")->add(3);
  total.merge_from(run);
  EXPECT_EQ(total.counter("x")->value(), 3u);
  EXPECT_EQ(total.counter("y")->value(), 3u);
}

TEST(Metrics, Fnv1a64KnownVectors) {
  // Published FNV-1a test vectors: offset basis for "", and "a".
  EXPECT_EQ(fnv1a64(std::string()), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fingerprint_hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
}

TEST(Metrics, SolveFingerprintIdenticalAcrossThreads) {
  // The fuzzer's `counters` agreement rule, as a unit test: same inputs,
  // different thread counts, bit-identical fingerprint (names and values).
  const ConstraintSet cs = mixed_constraints();
  MetricsRegistry m1, m4;
  SolveOptions o1, o4;
  o1.exec.threads = 1;
  o1.exec.metrics = &m1;
  o4.exec.threads = 4;
  o4.exec.metrics = &m4;
  ASSERT_EQ(Solver(cs).encode(o1).status, SolveResult::Status::kEncoded);
  ASSERT_EQ(Solver(cs).encode(o4).status, SolveResult::Status::kEncoded);
  EXPECT_FALSE(m1.fingerprint().empty());
  EXPECT_EQ(m1.fingerprint(), m4.fingerprint());
  EXPECT_EQ(m1.counter("solve.runs")->value(), 1u);
  EXPECT_GT(m1.counter("primes.folds")->value(), 0u);
  EXPECT_GT(m1.counter("cover.nodes")->value(), 0u);
  // The fuzzer's `histograms` rule, same shape: work-valued histogram
  // bucket counts are bit-identical across thread counts, and duration
  // histograms (solve.stage_us) stay out of the fingerprint.
  EXPECT_FALSE(m1.histogram_fingerprint().empty());
  EXPECT_EQ(m1.histogram_fingerprint(), m4.histogram_fingerprint());
  EXPECT_EQ(m1.histogram("solve.work")->count(), 1u);
  EXPECT_GT(m1.histogram("solve.stage_us")->count(), 0u);
  EXPECT_EQ(m1.histogram_fingerprint().find("solve.stage_us"),
            std::string::npos);
}

// --- RequestLog ------------------------------------------------------------

ReqLogRecord ok_record(const std::string& id, std::uint64_t total_us) {
  ReqLogRecord rec;
  rec.id = id;
  rec.status = "ok";
  rec.disposition = "solve";
  rec.queue_us = 1;
  rec.solve_us = total_us > 1 ? total_us - 1 : 0;
  rec.total_us = total_us;
  rec.work = 10;
  rec.counters.emplace_back("bits", 2);
  return rec;
}

TEST(RequestLog, SamplesEveryNthAndAlwaysLogsErrors) {
  const std::string path = testing::TempDir() + "/reqlog_sampling.ndjson";
  std::remove(path.c_str());
  ReqLogConfig cfg;
  cfg.path = path;
  cfg.sample_every = 2;
  RequestLog log(cfg);
  ASSERT_TRUE(log.ok()) << log.open_error();
  // 4 ok requests at 1-in-2 sampling: the 1st and 3rd land.
  EXPECT_TRUE(log.log(ok_record("r1", 10)));
  EXPECT_FALSE(log.log(ok_record("r2", 10)));
  EXPECT_TRUE(log.log(ok_record("r3", 10)));
  EXPECT_FALSE(log.log(ok_record("r4", 10)));
  // Errors bypass sampling (and do not advance its phase).
  ReqLogRecord err = ok_record("r5", 10);
  err.status = "overloaded";
  err.disposition = "rejected";
  err.error = true;
  EXPECT_TRUE(log.log(err));
  EXPECT_EQ(log.lines_written(), 3u);

  std::istringstream lines(read_file(path));
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_NE(line.find("\"schema\":\"encodesat-reqlog-v1\""),
              std::string::npos);
  }
  EXPECT_EQ(n, 3u);
}

TEST(RequestLog, SlowRequestBypassesSamplingAndAttachesSpans) {
  const std::string path = testing::TempDir() + "/reqlog_slow.ndjson";
  std::remove(path.c_str());
  ReqLogConfig cfg;
  cfg.path = path;
  cfg.sample_every = 0;  // sampled logging off: only errors/slow land
  cfg.slow_us = 1000;
  RequestLog log(cfg);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log.log(ok_record("fast", 999)));

  StageStats stats("solve");
  stats.work = 7;
  stats.add_child("prime_generation")->items = 3;
  ReqLogRecord slow = ok_record("slow1", 5000);
  slow.stats = &stats;
  EXPECT_TRUE(log.log(slow));

  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"id\":\"slow1\""), std::string::npos);
  EXPECT_NE(text.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(text.find("\"spans\":{"), std::string::npos);
  EXPECT_NE(text.find("prime_generation"), std::string::npos);
  EXPECT_NE(text.find("\"counters\":{\"bits\":2}"), std::string::npos);
  EXPECT_EQ(text.find("\"id\":\"fast\""), std::string::npos);
}

// Every control byte in a request id survives the log line: json_escape
// writes each one so that json_parse reads back the same bytes.
TEST(RequestLog, ControlBytesInIdRoundTripThroughJson) {
  const std::string path = testing::TempDir() + "/reqlog_escape.ndjson";
  std::remove(path.c_str());
  ReqLogConfig cfg;
  cfg.path = path;
  RequestLog log(cfg);
  ASSERT_TRUE(log.ok()) << log.open_error();
  std::string id;
  for (char c = 0x01; c <= 0x1f; ++c) id += c;
  id += "\"\\end";
  ASSERT_TRUE(log.log(ok_record(id, 10)));

  std::string line = read_file(path);
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse(line, &v, &error)) << error;
  const JsonValue* parsed = v.find("id");
  ASSERT_NE(parsed, nullptr);
  ASSERT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->str, id);
}

TEST(RequestLog, UnopenableFileReportsError) {
  ReqLogConfig cfg;
  cfg.path = "/nonexistent-dir-zzz/reqlog.ndjson";
  RequestLog log(cfg);
  EXPECT_FALSE(log.ok());
  EXPECT_FALSE(log.open_error().empty());
  EXPECT_FALSE(log.log(ok_record("r1", 10)));
}

// --- Telemetry -------------------------------------------------------------

// Zeroes every numeric value, blanks the fingerprint hex and empties the
// histogram bucket maps: the schema (key set, order, counter and histogram
// *names*) is the contract, values are not. Buckets must go entirely —
// duration histograms (solve.stage_us) land in different buckets from run
// to run, so even the *keys* are not stable.
std::string normalize_telemetry(std::string json) {
  static const std::regex kFingerprint(
      "\"counter_fingerprint\":\"[0-9a-f]{16}\"");
  json = std::regex_replace(json, kFingerprint,
                            "\"counter_fingerprint\":\"0\"");
  static const std::regex kBuckets("\"buckets\":\\{[^}]*\\}");
  json = std::regex_replace(json, kBuckets, "\"buckets\":{}");
  static const std::regex kNumber(":[0-9.eE+-]+");
  return std::regex_replace(json, kNumber, ":0");
}

std::string solve_telemetry_json() {
  Tracer tracer;
  MetricsRegistry metrics;
  SolveOptions opts;
  opts.exec.tracer = &tracer;
  opts.exec.metrics = &metrics;
  const SolveResult res = Solver(mixed_constraints()).encode(opts);
  EXPECT_EQ(res.status, SolveResult::Status::kEncoded);
  TelemetryOptions topts;
  topts.tool = "solve";
  topts.stats = &res.stats;
  topts.metrics = &metrics;
  topts.tracer = &tracer;
  return telemetry_to_json(topts);
}

TEST(TelemetryGolden, SolveTelemetrySchemaMatchesGoldenFile) {
  const std::string golden =
      read_file(std::string(ENCODESAT_TESTS_DATA_DIR) +
                "/solve_telemetry.golden.json");
  std::string want = golden;
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r'))
    want.pop_back();
  EXPECT_EQ(normalize_telemetry(solve_telemetry_json()), want)
      << "telemetry schema drifted; update "
      << "tests/data/solve_telemetry.golden.json (see header comment) and "
      << "document the change in docs/OBSERVABILITY.md";
}

TEST(TelemetryGolden, NullSectionsSerializeAsNull) {
  TelemetryOptions topts;
  topts.tool = "bench";
  const std::string json = telemetry_to_json(topts);
  EXPECT_NE(json.find("\"schema\":\"encodesat-telemetry-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"bench\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\":null"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":null"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{}"), std::string::npos);
  // Empty registry fingerprint = FNV-1a offset basis.
  EXPECT_NE(json.find(fingerprint_hex(fnv1a64(std::string()))),
            std::string::npos);
}

// Not a check: prints the current normalized schema for regeneration.
TEST(TelemetryGolden, DISABLED_PrintCurrent) {
  std::printf("%s\n", normalize_telemetry(solve_telemetry_json()).c_str());
}

}  // namespace
}  // namespace encodesat
