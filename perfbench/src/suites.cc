// suite_exact (Table 1's P-2 flow) and suite_heuristic (Table 2's P-3
// flow): single-threaded, in-process calls to the library's public entry
// points, one machine at a time.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/bounded.h"
#include "core/cost.h"
#include "core/solver.h"
#include "core/verify.h"
#include "inputs.h"
#include "layers.h"
#include "measure.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using encodesat::ConstraintSet;
using encodesat::Encoding;

// Table 1's term budget and its quick node budget, plus a fixed work
// budget: 3 of the 9 machines decide within them.
constexpr std::size_t kMaxTerms = 50000;
constexpr std::uint64_t kMaxNodes = 20000;
constexpr std::uint64_t kMaxWork = 10'000'000'000ull;
// Table 2's quick selection budget.
constexpr int kSelectionEvals = 60;
// Each machine's times over the rounds are summarized by their fastest
// tenth (the nearest-rank 10th percentile: the fastest of up to ten). A
// single-threaded solve is deterministic work, to which host noise (steal,
// a busy neighbour on the physical core, a slower vCPU) only adds time, so
// this moves only when the host slowed nearly every round; a median moves
// as soon as it slowed half of them.
constexpr double kFastestShare = 0.10;

// Timed rounds (passes over the suite): a fixed count for a given
// --seconds, sized by nominal pass times, set-ups included, on a 4-vCPU
// x86 VM (3 s exact, 5 s heuristic), so that every run does the same work.
int rounds_for(const Options& opt) {
  const double nominal_s = opt.workload == "suite_exact" ? 3.0 : 5.0;
  return std::max(3, static_cast<int>(std::lround(opt.seconds / nominal_s)));
}

// Set-ups timed per run. A suite_heuristic set-up takes only 0.1 s, short
// enough for sub-second host noise to split a run's set-ups into a fast and
// a slow group, so it times three times as many for a steady median.
int setups_for(const Options& opt) {
  return opt.workload == "suite_heuristic" ? 3 * kSetups : kSetups;
}

// One machine's answer; equal across rounds, or a clock leaked in.
struct Answer {
  bool encoded = false;
  bool infeasible = false;  // suite_exact: a P-1 infeasibility verdict
  Encoding encoding;
  int truncation = 0;
  int cubes = 0;  // heuristic: the cost bounded_encode reports
  std::string error;
  encodesat::StageStats stats;

  bool same(const Answer& o) const {
    return encoded == o.encoded && infeasible == o.infeasible &&
           encoding.bits == o.encoding.bits &&
           encoding.codes == o.encoding.codes && truncation == o.truncation &&
           cubes == o.cubes && error == o.error;
  }
};

Answer solve_machine(const std::string& workload, const SuiteMachine& m,
                     encodesat::MetricsRegistry& metrics, SpanRecorder& spans) {
  Answer a;
  try {
    if (workload == "suite_exact") {
      encodesat::SolveOptions opts;
      opts.pipeline = encodesat::SolveOptions::Pipeline::kExact;
      opts.exact.prime_options.max_terms = kMaxTerms;
      opts.exact.cover_options.max_nodes = kMaxNodes;
      opts.exec.max_work = kMaxWork;
      opts.exec.metrics = &metrics;
      encodesat::SolveResult r;
      {
        ScopedSpan span(spans, "Solver::encode", m.name);
        r = encodesat::Solver(m.cs).encode(opts);
      }
      a.encoded = r.encoded();
      a.infeasible = r.status == encodesat::SolveResult::Status::kInfeasible;
      a.encoding = std::move(r.encoding);
      a.truncation = static_cast<int>(r.truncation);
      a.stats = std::move(r.stats);
    } else {
      encodesat::BoundedEncodeOptions opts;
      opts.cost = encodesat::CostKind::kCubes;
      opts.max_selection_evals = kSelectionEvals;
      encodesat::ExecContext ctx;
      ctx.metrics = &metrics;
      ScopedSpan span(spans, "bounded_encode", m.name);
      encodesat::BoundedEncodeResult r = encodesat::bounded_encode(
          m.cs, encodesat::minimum_code_length(m.states), opts, ctx);
      a.encoded = true;
      a.encoding = std::move(r.encoding);
      a.truncation = static_cast<int>(r.truncation);
      a.cubes = r.cost.cubes;
    }
  } catch (const std::exception& e) {
    a.error = e.what();
  }
  return a;
}

// The answer check: P-2 encodings pass verify_encoding; P-3 encodings have
// distinct codes at minimum length and the cube cost they report. Returns
// "" when correct.
std::string check_answer(const std::string& workload, const SuiteMachine& m,
                         const Answer& a) {
  if (!a.error.empty()) return "exception: " + a.error;
  if (workload == "suite_exact") {
    // Constraint derivation keeps only feasible sets, so infeasible is wrong.
    if (a.infeasible) return "infeasible verdict on a feasible set";
    if (!a.encoded) return "";  // a budget verdict, as Table 1's '*' rows
    const auto v = encodesat::verify_encoding(a.encoding, m.cs);
    return v.empty() ? "" : "verify_encoding: " + v[0].to_string();
  }
  if (a.encoding.bits != encodesat::minimum_code_length(m.states))
    return "code length is not the minimum";
  for (const auto& v : encodesat::verify_encoding(a.encoding, m.cs))
    if (v.kind == encodesat::Violation::Kind::kDuplicateCode)
      return "duplicate codes";
  const int cubes = encodesat::evaluate_encoding_cost(a.encoding, m.cs).cubes;
  if (cubes != a.cubes)
    return "reported " + std::to_string(a.cubes) + " cubes, recomputed " +
           std::to_string(cubes);
  return "";
}

// Wall and CPU seconds of each machine's solve in one pass.
struct MachineTimes {
  std::vector<double> wall_s, cpu_s;
};

// One pass over the suite. Returns its wall time; fills answers and
// per-machine times.
double run_pass(const std::string& workload,
                const std::vector<SuiteMachine>& machines,
                encodesat::MetricsRegistry& metrics, SpanRecorder& spans,
                std::vector<Answer>* answers, MachineTimes* times) {
  answers->clear();
  *times = {};
  const Clock::time_point t0 = Clock::now();
  for (const SuiteMachine& m : machines) {
    ScopedSpan span(spans, "machine", m.name);
    const Clock::time_point t = Clock::now();
    const double cpu = self_cpu_seconds();
    answers->push_back(solve_machine(workload, m, metrics, spans));
    times->cpu_s.push_back(self_cpu_seconds() - cpu);
    times->wall_s.push_back(seconds_between(t, Clock::now()));
  }
  return seconds_between(t0, Clock::now());
}

// One ESPRESSO minimization per machine: evaluate_face_cost on the first
// face the final encoding violates.
std::vector<double> time_espresso(const std::vector<SuiteMachine>& machines,
                                  const std::vector<Answer>& answers,
                                  SpanRecorder& spans) {
  std::vector<double> us;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const Encoding& enc = answers[i].encoding;
    if (!answers[i].encoded) continue;
    const ConstraintSet& cs = machines[i].cs;
    for (const auto& f : cs.faces()) {
      if (encodesat::face_satisfied(enc, cs, f)) continue;
      const encodesat::Cover dc = encodesat::unused_code_dontcares(enc);
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(spans, "evaluate_face_cost", machines[i].name);
        encodesat::evaluate_face_cost(enc, cs, f, dc, /*fast=*/false);
      }
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      break;
    }
  }
  return us;
}

struct Checked {
  std::uint64_t failed = 0;
  int encoded = 0;
  double cubes_sum = 0;
};

double solved_pct(const Checked& c, std::size_t machines) {
  return 100.0 * c.encoded / static_cast<double>(machines);
}

double cubes_mean(const Checked& c, std::size_t machines) {
  return c.cubes_sum / static_cast<double>(machines);
}

// One pass's counts and the answers' quality against the recorded values.
void check_pass_recorded(const Options& opt, const Counters& counts,
                         const Checked& c, std::size_t machines, Report& rep) {
  std::vector<std::pair<std::string, double>> values = recorded_counts(counts);
  if (opt.workload == "suite_exact")
    values.emplace_back("solved_pct", solved_pct(c, machines));
  else
    values.emplace_back("cubes_mean", cubes_mean(c, machines));
  check_recorded(opt, values, rep);
}

Checked check_pass(const std::string& workload,
                   const std::vector<SuiteMachine>& machines,
                   const std::vector<Answer>& answers, Report& rep) {
  Checked c;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const std::string why = check_answer(workload, machines[i], answers[i]);
    if (!why.empty()) {
      ++c.failed;
      rep.note("answer check: " + machines[i].name + ": " + why);
      continue;
    }
    c.encoded += answers[i].encoded;
    c.cubes_sum += answers[i].cubes;
  }
  return c;
}

void run_traced(const Options& opt, const std::vector<SuiteMachine>& machines,
                Report& rep, SpanRecorder& spans) {
  // The same pass twice: spans off, then on. The counts must agree, and
  // the wall-time ratio is the tracing overhead.
  SpanRecorder off(false);
  encodesat::MetricsRegistry plain_metrics, traced_metrics;
  std::vector<Answer> plain, traced;
  MachineTimes times;
  const double plain_s =
      run_pass(opt.workload, machines, plain_metrics, off, &plain, &times);
  const double traced_s = run_pass(opt.workload, machines, traced_metrics,
                                   spans, &traced, &times);
  const Counters counts = read_counters(traced_metrics);
  check_counts_repeat(rep, read_counters(plain_metrics), counts);
  for (std::size_t i = 0; i < machines.size(); ++i)
    if (!plain[i].same(traced[i]))
      rep.fail("determinism: " + machines[i].name +
               " answered differently in the two replays");
  const Checked c = check_pass(opt.workload, machines, traced, rep);
  rep.attempted = machines.size();
  rep.failed = c.failed;
  if (c.failed > 0) rep.fail(std::to_string(c.failed) + " answers failed the check");
  check_pass_recorded(opt, counts, c, machines.size(), rep);

  std::vector<encodesat::StageStats> stages;
  for (const Answer& a : traced)
    if (!a.stats.name.empty()) stages.push_back(a.stats);
  set_stage_metrics(rep, stages);
  set_counter_metrics(rep, counts);
  set_call_metrics(rep, "core.bounded", spans.durations("bounded_encode"),
                   "bounded_encode calls");
  set_call_metrics(rep, "logic.espresso", time_espresso(machines, traced, spans),
                   "evaluate_face_cost calls on a violated face");
  rep.set("trace.overhead_pct", (traced_s / plain_s - 1) * 100, "%",
          "traced against untraced pass over " +
              std::to_string(machines.size()) + " machines");
}

}  // namespace

void run_suite(const Options& opt, Report& rep) {
  const Clock::time_point begin = Clock::now();
  const std::vector<std::string> order = suite_order(opt.workload, opt.seed);
  SpanRecorder spans(opt.trace);
  SpanRecorder off(false);

  // Set-up: machine synthesis and constraint derivation. Each set-up and
  // each timed round runs on the next CPU in turn.
  CpuRotation cpus;
  std::vector<double> setups;
  std::vector<SuiteMachine> machines;
  auto set_up = [&] {
    cpus.pin(setups.size());
    const Clock::time_point t0 = Clock::now();
    machines = derive_suite(opt.workload, order, opt.trace ? &spans : nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  set_up();
  rep.note("inputs: " + std::to_string(machines.size()) + " machines in seeded order");
  if (!accept_inputs(opt, suite_base_hash(machines), suite_seeded_hash(machines),
                     rep))
    return;
  if (opt.trace) {
    set_gen_metric(rep, spans,
                   opt.workload == "suite_exact" ? "generate_mixed_constraints"
                                                 : "generate_input_constraints");
    run_traced(opt, machines, rep, spans);
    write_trace(opt, spans, rep);
    return;
  }

  // The set-ups, spread evenly between the timed rounds: round r starts
  // after ceil((r + 1) * num_setups / num_rounds) of them.
  const int num_rounds = rounds_for(opt);
  const int num_setups = setups_for(opt);
  int ran = 0;
  double pass_s = 0;  // the last round's wall time
  MachineTimes times;
  // Per machine, its times over the rounds.
  std::vector<MachineTimes> per_machine(machines.size());
  std::vector<Answer> first, answers;
  Counters first_counts;
  for (int r = 0; r < num_rounds; ++r) {
    // A pass takes seconds, so the guard stops a round that would end,
    // at the last round's pace, after it.
    if (r > 0 && seconds_between(begin, Clock::now()) + pass_s >
                     kRoundGuard * opt.seconds) {
      rep.note("round guard: ran " + std::to_string(r) + " of " +
               std::to_string(num_rounds) + " rounds before the time guard");
      break;
    }
    while (static_cast<int>(setups.size()) <
           ((r + 1) * num_setups + num_rounds - 1) / num_rounds)
      set_up();
    encodesat::MetricsRegistry metrics;
    cpus.pin(static_cast<std::size_t>(r));
    pass_s = run_pass(opt.workload, machines, metrics, off, &answers, &times);
    ++ran;
    for (std::size_t i = 0; i < machines.size(); ++i) {
      per_machine[i].wall_s.push_back(times.wall_s[i]);
      per_machine[i].cpu_s.push_back(times.cpu_s[i]);
    }
    const Counters counts = read_counters(metrics);
    if (r == 0) {
      first = answers;
      first_counts = counts;
      continue;
    }
    // Determinism guard: every round does the same work with the same
    // answers.
    check_counts_repeat(rep, first_counts, counts);
    for (std::size_t i = 0; i < machines.size(); ++i)
      if (!answers[i].same(first[i]))
        rep.fail("determinism: " + machines[i].name + " answered differently in round " +
                 std::to_string(r));
  }

  const Checked c = check_pass(opt.workload, machines, first, rep);
  const std::size_t n = machines.size();
  rep.attempted = n * static_cast<std::size_t>(ran);
  rep.failed = c.failed * static_cast<std::size_t>(ran);
  if (c.failed > 0) rep.fail(std::to_string(c.failed) + " answers failed the check");
  check_pass_recorded(opt, first_counts, c, n, rep);

  // Each machine's time to a verdict, wall and CPU: the fastest tenth of
  // its times over the rounds.
  std::vector<double> wall_s, cpu_s;
  for (const MachineTimes& t : per_machine) {
    wall_s.push_back(percentile(t.wall_s, kFastestShare));
    cpu_s.push_back(percentile(t.cpu_s, kFastestShare));
  }
  const double fastest_pass_s =
      std::accumulate(wall_s.begin(), wall_s.end(), 0.0);
  const double pass_cpu_s = std::accumulate(cpu_s.begin(), cpu_s.end(), 0.0);
  const std::string what = "each machine's fastest tenth of " +
                           std::to_string(ran) + " rounds, " +
                           std::to_string(n) + " machines";
  rep.set("latency_p50_ms", median(wall_s) * 1e3, "ms", "p50 over " + what);
  rep.set("throughput_rps", static_cast<double>(n) / fastest_pass_s, "1/s",
          "machines / summed wall time, " + what);
  rep.set("cpu_ms_per_req", pass_cpu_s * 1e3 / static_cast<double>(n), "ms",
          "benchmark process CPU per machine, " + what);
  rep.set("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) +
              " set-ups: synthesis and constraint derivation");
  rep.set("peak_rss_mb", peak_rss_mb(0), "MB", "VmHWM of the benchmark process");
  rep.set("failed_pct",
          100.0 * static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          "%", std::to_string(rep.attempted) + " answers checked");
  if (opt.workload == "suite_exact")
    rep.set("solved_pct", solved_pct(c, n), "%",
            "machines with a verified encoding within the budgets, of " +
                std::to_string(n));
  else
    rep.set("cubes_mean", cubes_mean(c, n), "cubes",
            "mean Fig. 9 cube cost over " + std::to_string(n) + " machines");
}

}  // namespace perfbench
