// encodesat_cli — the one-stop command-line driver for the full flow.
//
//   encodesat_cli analyze     <machine.kiss2>
//       determinism/completeness/reachability report
//   encodesat_cli constraints <machine.kiss2>
//       symbolic minimization -> constraint text on stdout
//   encodesat_cli encode      <machine.kiss2> [--bits K] [--cost C] [--exact]
//       state assignment: heuristic at K bits (default: minimum length,
//       cost C in {violated, cubes, literals}; default cubes) or --exact
//       minimum-length satisfaction of all constraints; prints codes and
//       the minimized encoded PLA to stdout (espresso format)
//   encodesat_cli solve       <constraints.txt>
//       minimum-length encoding of a constraint file via the Solver facade;
//       prints the code table to stdout
//   encodesat_cli fuzz        [--seed S] [--cases N] [--mix M] [--minimize]
//                             [--out DIR]
//       differential fuzzing: random constraint sets through the exact
//       solver, the local check, the baselines and the verify_encoding
//       oracle, cross-checked by the agreement rules of
//       src/fuzz/differential.h; exits 0 iff zero divergences. --minimize
//       delta-debugs each divergent case; --out writes reproducer files
//   encodesat_cli serve       [--socket PATH | --tcp HOST:PORT]
//                             [--workers N] [--max-queue N]
//                             [--default-deadline SECS] [--max-conns N]
//                             [--idle-timeout SECS] [--max-line-bytes N]
//                             [--backlog N]
//       long-running solve service speaking the NDJSON protocol
//       "encodesat-service-v1" (docs/SERVICE.md) on stdin/stdout, on a
//       Unix-domain socket with --socket, or on TCP with --tcp. All
//       clients share one solve cache with single-flight coalescing;
//       connections are reaped eagerly as clients disconnect; SIGTERM
//       drains gracefully (in-flight finishes, queued rejected as
//       overloaded, --cache-save flushed). --timeout sets the default
//       per-request deadline
//
// Flag parsing: every subcommand consumes the shared table below through
// parse_common_flag(); only the subcommand-specific flags are parsed in
// each cmd_* function.
//
// Shared budget/observability flags (encode, solve and fuzz):
//   --timeout SECS    wall-clock budget; expiry yields a truncated result,
//                     never a hang (encode/solve only)
//   --threads N       worker threads (0 = all hardware threads)
//   --stats-out DEST  "encodesat-telemetry-v2" report (stage stats, work
//                     counters, counter fingerprint, gauges, histograms,
//                     trace totals) written to DEST; '-' means stderr
//   --trace-out FILE  Chrome trace-event JSON ("encodesat-trace-v1") of the
//                     pipeline spans, loadable in chrome://tracing/Perfetto
//
// Solve-cache flags:
//   --cache           encode/solve: consult the canonical-form solve cache
//                     (src/cache/); fuzz: run the `cache` agreement rule
//                     (on by default; --no-cache disables it)
//   --cache-size B    cache byte budget (default 64 MiB; 0 = unlimited)
//   --cache-load F    encode/solve: pre-load the cache from an
//                     `encodesat-cache-v1` file (implies --cache)
//   --cache-save F    encode/solve: save the cache to F afterwards
//                     (implies --cache)
//
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/bounded.h"
#include "core/normalize.h"
#include "core/solver.h"
#include "core/verify.h"
#include "fsm/analyze.h"
#include "fuzz/differential.h"
#include "fuzz/minimizer.h"
#include "fuzz/reproducer.h"
#include "fsm/constraints_gen.h"
#include "fsm/encode_fsm.h"
#include "fsm/reachability.h"
#include "fsm/simulate.h"
#include "logic/espresso.h"
#include "obs/counters.h"
#include "obs/reqlog.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "service/server.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace encodesat;

namespace {

struct CliOptions {
  int bits = 0;
  CostKind cost = CostKind::kCubes;
  bool exact = false;
  double timeout_seconds = 0;
  int threads = 1;
  /// Solve cache (--cache / --cache-size / --cache-load / --cache-save).
  bool cache = false;
  std::uint64_t cache_size = 64u << 20;
  std::string cache_load;
  std::string cache_save;
  /// Telemetry destination: empty = off, "-" = stderr, else a file path.
  std::string stats_out;
  /// Chrome-trace output file; empty disables tracing entirely.
  std::string trace_out;
};

// Writes one observability artifact to a --stats-out style destination
// ("-" = stderr, else a file path). Failures warn but do not change the
// command's exit status — the solve result is the contract.
void write_text_to(const std::string& dest, const std::string& text,
                   const char* what) {
  if (dest == "-") {
    std::fprintf(stderr, "%s\n", text.c_str());
    return;
  }
  std::ofstream out(dest);
  if (!out)
    std::fprintf(stderr, "cannot write %s to %s\n", what, dest.c_str());
  else
    out << text << '\n';
}

// Emits the telemetry report and/or the Chrome trace per the CLI flags.
void emit_observability(const CliOptions& cli, const char* tool,
                        const StageStats* stats, MetricsRegistry* metrics,
                        Tracer* tracer) {
  if (metrics && tracer)
    // High-water gauge (not add): idempotent however many surfaces report.
    metrics->counter("obs.trace.dropped", /*in_fingerprint=*/false)
        ->record_max(tracer->dropped_spans());
  if (!cli.stats_out.empty()) {
    TelemetryOptions topts;
    topts.tool = tool;
    topts.stats = stats;
    topts.metrics = metrics;
    topts.tracer = tracer;
    write_text_to(cli.stats_out, telemetry_to_json(topts), "telemetry");
  }
  if (tracer && !cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out);
    if (!out)
      std::fprintf(stderr, "cannot write trace to %s\n",
                   cli.trace_out.c_str());
    else
      tracer->write_chrome_trace(out);
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s analyze|constraints|encode <machine.kiss2> "
               "[--bits K] [--cost violated|cubes|literals] [--exact]\n"
               "       %s solve <constraints.txt>\n"
               "       %s fuzz [--seed S] [--cases N] "
               "[--mix default|input|output|extensions|infeasible] "
               "[--minimize] [--out DIR]\n"
               "       %s serve [--socket PATH | --tcp HOST:PORT] "
               "[--workers N] [--max-queue N] [--default-deadline SECS]\n"
               "                [--max-conns N] [--idle-timeout SECS] "
               "[--max-line-bytes N] [--backlog N]\n"
               "                [--reqlog FILE] [--reqlog-sample N] "
               "[--slow-ms N] [--metrics-window SECS]\n"
               "  common flags: [--timeout SECS] [--threads N] "
               "[--stats-out DEST] [--trace-out FILE]\n"
               "  cache flags:  [--cache] [--cache-size BYTES] "
               "[--cache-load FILE] [--cache-save FILE]\n"
               "  (fuzz takes --cache/--no-cache/--cache-size for the cache "
               "agreement rule;\n"
               "   '-' as DEST means stderr)\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

Fsm load(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open ") + path);
  Fsm fsm = parse_kiss2(in);
  fsm.name = path;
  return fsm;
}

int cmd_analyze(const Fsm& fsm) {
  const FsmAnalysis a = analyze_fsm(fsm);
  std::printf("machine: %u states, %d inputs, %d outputs, %zu transitions\n",
              fsm.num_states(), fsm.num_inputs, fsm.num_outputs,
              a.transitions);
  std::printf("deterministic: %s, complete: %s, max fanout: %d, "
              "dc output bits: %zu\n",
              a.deterministic ? "yes" : "NO", a.complete ? "yes" : "no",
              a.max_fanout, a.dont_care_outputs);
  for (const auto& issue : a.issues)
    std::printf("  state %s: %s\n", fsm.states.name(issue.state).c_str(),
                issue.detail.c_str());
  const auto pruned = prune_unreachable(fsm);
  std::printf("unreachable states: %u\n", pruned.removed);
  return a.deterministic ? 0 : 1;
}

int cmd_constraints(const Fsm& fsm) {
  ConstraintSet cs = generate_mixed_constraints(fsm);
  normalize_constraints(cs);
  std::printf("# constraints for %s (%u states)\n", fsm.name.c_str(),
              fsm.num_states());
  std::fputs(cs.to_string().c_str(), stdout);
  return 0;
}

SolveOptions to_solve_options(const CliOptions& cli) {
  SolveOptions opts;
  opts.exec.timeout_seconds = cli.timeout_seconds;
  opts.exec.threads = cli.threads;
  return opts;
}

bool cli_wants_cache(const CliOptions& cli) {
  return cli.cache || !cli.cache_load.empty() || !cli.cache_save.empty();
}

// Builds the CLI-owned solve cache when any cache flag was given, loading
// --cache-load first. A load failure is fatal (exit 2 upstream) — silently
// solving cold would mask a typo'd path.
std::unique_ptr<SolveCache> make_cli_cache(const CliOptions& cli, bool* ok) {
  *ok = true;
  if (!cli_wants_cache(cli)) return nullptr;
  CacheConfig config;
  config.max_bytes = static_cast<std::size_t>(cli.cache_size);
  auto cache = std::make_unique<SolveCache>(config);
  if (!cli.cache_load.empty()) {
    std::string err;
    if (!cache->load(cli.cache_load, &err)) {
      std::fprintf(stderr, "--cache-load %s: %s\n", cli.cache_load.c_str(),
                   err.c_str());
      *ok = false;
      return nullptr;
    }
  }
  return cache;
}

// Saves per --cache-save and reports hit/miss totals. Save failures warn
// but keep the solve's exit status — the result already went to stdout.
void finish_cli_cache(const CliOptions& cli, SolveCache* cache) {
  if (!cache) return;
  if (!cli.cache_save.empty()) {
    std::string err;
    if (!cache->save(cli.cache_save, &err))
      std::fprintf(stderr, "--cache-save %s: %s\n", cli.cache_save.c_str(),
                   err.c_str());
  }
  const CacheStats s = cache->stats();
  std::fprintf(stderr,
               "cache: %llu hits, %llu misses, %zu entries (%zu bytes)\n",
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses), s.entries, s.bytes);
}

int cmd_encode(const Fsm& fsm, const CliOptions& cli) {
  ConstraintSet cs = generate_mixed_constraints(fsm);
  normalize_constraints(cs);
  std::fprintf(stderr, "constraints: %zu face, %zu dominance, %zu disjunctive\n",
               cs.faces().size(), cs.dominances().size(),
               cs.disjunctives().size());
  Timer t;
  Encoding enc;
  std::unique_ptr<Tracer> tracer;
  if (!cli.trace_out.empty()) tracer = std::make_unique<Tracer>();
  MetricsRegistry metrics;
  if (cli.exact) {
    bool cache_ok = true;
    std::unique_ptr<SolveCache> cache = make_cli_cache(cli, &cache_ok);
    if (!cache_ok) return 2;
    SolveRequest req;
    req.constraints = cs;
    req.options = to_solve_options(cli);
    req.options.exact.cover_options.max_nodes = 200000;
    req.options.exec.tracer = tracer.get();
    req.options.exec.metrics = &metrics;
    req.options.cache.store = cache.get();
    const SolveResponse resp = solve(req);
    const SolveResult& res = resp.result;
    emit_observability(cli, "encode", &res.stats, &metrics, tracer.get());
    finish_cli_cache(cli, cache.get());
    if (resp.status == StatusCode::kInternal) {
      std::fprintf(stderr, "%s\n", resp.detail.c_str());
      return 2;
    }
    if (!resp.ok()) {
      std::fprintf(stderr, "exact encoding failed (%s)\n",
                   res.status == SolveResult::Status::kTruncated
                       ? truncation_name(res.truncation)
                       : "infeasible");
      return 1;
    }
    enc = res.encoding;
    std::fprintf(stderr, "exact: %d bits (%s)%s in %.2fs\n", enc.bits,
                 res.minimal ? "minimal" : "upper bound",
                 res.from_cache ? " [cached]" : "", t.elapsed_seconds());
  } else {
    int bits = cli.bits;
    if (bits <= 0) bits = minimum_code_length(fsm.num_states());
    SolveOptions opts = to_solve_options(cli);
    opts.bounded.cost = cli.cost;
    opts.exec.tracer = tracer.get();
    opts.exec.metrics = &metrics;
    StageStats stats;
    const auto res = Solver(cs).encode_bounded(bits, opts, &stats);
    emit_observability(cli, "encode", &stats, &metrics, tracer.get());
    enc = res.encoding;
    std::fprintf(stderr,
                 "heuristic: %d bits, %d faces violated, %d cubes, "
                 "%d literals in %.2fs%s\n",
                 enc.bits, res.cost.violated_faces, res.cost.cubes,
                 res.cost.literals, t.elapsed_seconds(),
                 res.truncation == Truncation::kNone ? "" : " (truncated)");
  }
  for (std::uint32_t s = 0; s < fsm.num_states(); ++s)
    std::fprintf(stderr, "  %-12s %s\n", fsm.states.name(s).c_str(),
                 enc.code_string(s).c_str());

  // Build, minimize, behaviourally check, and emit the encoded PLA.
  Pla pla = encode_fsm(fsm, enc);
  const Cover minimized = espresso(pla.on, pla.dc);
  const auto eq = check_encoded_equivalence(fsm, enc, minimized, 500);
  std::fprintf(stderr, "encoded PLA: %zu cubes, %d literals; equivalence "
               "walk: %s\n",
               minimized.size(), minimized.input_literals(),
               eq.equivalent ? "ok" : eq.first_mismatch.c_str());
  if (!eq.equivalent) return 1;
  Pla out = pla;
  out.on = minimized;
  out.dc = Cover(pla.domain);
  write_pla(std::cout, out);
  return 0;
}

int cmd_solve(const char* path, const CliOptions& cli) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  ParseError err;
  const auto cs = parse_constraints(buf.str(), &err);
  if (!cs) {
    std::fprintf(stderr, "%s: parse error at %s\n", path,
                 err.to_string().c_str());
    return 2;
  }

  Timer t;
  std::unique_ptr<Tracer> tracer;
  if (!cli.trace_out.empty()) tracer = std::make_unique<Tracer>();
  MetricsRegistry metrics;
  bool cache_ok = true;
  std::unique_ptr<SolveCache> cache = make_cli_cache(cli, &cache_ok);
  if (!cache_ok) return 2;
  SolveRequest req;
  req.constraints = *cs;
  req.options = to_solve_options(cli);
  req.options.exec.tracer = tracer.get();
  req.options.exec.metrics = &metrics;
  req.options.cache.store = cache.get();
  const SolveResponse resp = solve(req);
  const SolveResult& res = resp.result;
  emit_observability(cli, "solve", &res.stats, &metrics, tracer.get());
  finish_cli_cache(cli, cache.get());
  switch (resp.status) {
    case StatusCode::kInfeasible:
      std::printf("INFEASIBLE\n");
      return 1;
    case StatusCode::kTimeout:
    case StatusCode::kCanceled:
      std::printf("TRUNCATED (%s)\n", truncation_name(res.truncation));
      return 1;
    case StatusCode::kInternal:
      std::fprintf(stderr, "%s\n", resp.detail.c_str());
      return 2;
    default:
      break;
  }
  std::fprintf(stderr, "encoded %u symbols in %d bits (%s)%s in %.2fs\n",
               cs->num_symbols(), res.encoding.bits,
               res.minimal ? "minimal" : "upper bound",
               res.from_cache ? " [cached]" : "", t.elapsed_seconds());
  std::printf("bits: %d\n", res.encoding.bits);
  for (std::uint32_t s = 0; s < cs->num_symbols(); ++s)
    std::printf("%-12s %s\n", cs->symbols().name(s).c_str(),
                res.encoding.code_string(s).c_str());
  return 0;
}

// atoi/atof silently map garbage to 0, which for --timeout means
// "no timeout" — reject anything that doesn't parse fully instead.
bool parse_number(const char* flag, const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "%s: expected a non-negative number, got '%s'\n",
                 flag, text);
    return false;
  }
  *out = v;
  return true;
}

bool parse_int(const char* flag, const char* text, int* out) {
  double v = 0;
  if (!parse_number(flag, text, &v)) return false;
  if (v != static_cast<int>(v)) {
    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", flag, text);
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool parse_u64(const char* flag, const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected a non-negative integer, got '%s'\n",
                 flag, text);
    return false;
  }
  *out = v;
  return true;
}

// The one shared flag table (budget, observability, cache) consumed by
// every subcommand. Returns the number of argv slots consumed at position
// `i` (0 = not a shared flag, caller tries its own flags), or -1 when the
// flag was recognized but its value was malformed (caller exits 2).
int parse_common_flag(int argc, char** argv, int i, CliOptions* cli) {
  const char* flag = argv[i];
  const bool has_value = i + 1 < argc;
  if (!std::strcmp(flag, "--timeout") && has_value)
    return parse_number(flag, argv[i + 1], &cli->timeout_seconds) ? 2 : -1;
  if (!std::strcmp(flag, "--threads") && has_value)
    return parse_int(flag, argv[i + 1], &cli->threads) ? 2 : -1;
  if (!std::strcmp(flag, "--cache")) {
    cli->cache = true;
    return 1;
  }
  if (!std::strcmp(flag, "--cache-size") && has_value)
    return parse_u64(flag, argv[i + 1], &cli->cache_size) ? 2 : -1;
  if (!std::strcmp(flag, "--cache-load") && has_value) {
    cli->cache_load = argv[i + 1];
    return 2;
  }
  if (!std::strcmp(flag, "--cache-save") && has_value) {
    cli->cache_save = argv[i + 1];
    return 2;
  }
  if (!std::strcmp(flag, "--stats-out") && has_value) {
    cli->stats_out = argv[i + 1];
    return 2;
  }
  if (!std::strcmp(flag, "--trace-out") && has_value) {
    cli->trace_out = argv[i + 1];
    return 2;
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t cases = 1000;
  FuzzRunOptions opts;
  bool minimize = false;
  bool no_cache = false;
  std::string out_dir;
  CliOptions obs_cli;  // shared flags (threads, cache sizing, observability)
  obs_cli.cache_size = opts.differential.cache_max_bytes;
  for (int i = 2; i < argc; ++i) {
    const int used = parse_common_flag(argc, argv, i, &obs_cli);
    if (used < 0) return 2;
    if (used > 0) {
      i += used - 1;
      continue;
    }
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      if (!parse_u64("--seed", argv[++i], &seed)) return 2;
    } else if (!std::strcmp(argv[i], "--cases") && i + 1 < argc) {
      if (!parse_u64("--cases", argv[++i], &cases)) return 2;
    } else if (!std::strcmp(argv[i], "--mix") && i + 1 < argc) {
      const auto mix = generator_mix(argv[++i]);
      if (!mix) {
        std::fprintf(stderr, "--mix: unknown mix '%s'\n", argv[i]);
        return 2;
      }
      opts.generator = *mix;
    } else if (!std::strcmp(argv[i], "--minimize"))
      minimize = true;
    else if (!std::strcmp(argv[i], "--no-cache"))
      no_cache = true;
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_dir = argv[++i];
    else
      return usage(argv[0]);
  }
  // Shared-table flags map onto the fuzz run: --cache/--no-cache toggle
  // the cache agreement rule (on by default), --cache-size bounds its
  // per-case caches, --threads is the case fan-out width.
  opts.threads = obs_cli.threads;
  if (obs_cli.cache) opts.differential.check_cache = true;
  if (no_cache) opts.differential.check_cache = false;
  opts.differential.cache_max_bytes =
      static_cast<std::size_t>(obs_cli.cache_size);

  std::unique_ptr<Tracer> tracer;
  if (!obs_cli.trace_out.empty()) tracer = std::make_unique<Tracer>();
  MetricsRegistry metrics;
  opts.tracer = tracer.get();
  opts.differential.metrics = &metrics;

  const FuzzReport report = run_fuzz(seed, cases, opts);
  for (const FuzzDivergentCase& dc : report.divergent) {
    std::fprintf(stderr, "divergence: case %llu (seed %llu)\n",
                 static_cast<unsigned long long>(dc.index),
                 static_cast<unsigned long long>(dc.case_seed));
    for (const FuzzDivergence& d : dc.result.divergences)
      std::fprintf(stderr, "  %s: %s\n", fuzz_rule_name(d.rule),
                   d.detail.c_str());

    FuzzReproducer repro;
    repro.run_seed = seed;
    repro.case_index = dc.index;
    repro.rule = fuzz_rule_name(dc.result.divergences.front().rule);
    repro.detail = dc.result.divergences.front().detail;
    ParseError err;
    const auto cs = parse_constraints(dc.constraints_text, &err);
    if (!cs) {
      std::fprintf(stderr, "  internal: case does not re-parse (%s)\n",
                   err.to_string().c_str());
      continue;
    }
    repro.constraints = *cs;
    if (minimize) {
      const auto pred = rule_predicate(dc.result.divergences.front().rule,
                                       opts.differential);
      const MinimizeResult min = minimize_divergence(*cs, pred);
      std::fprintf(stderr,
                   "  minimized: -%d constraints, -%d elements, -%d symbols "
                   "(%d probes)\n",
                   min.removed_constraints, min.removed_elements,
                   min.removed_symbols, min.probes);
      repro.constraints = min.constraints;
      repro.minimized = true;
    }
    if (!out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(out_dir, ec);
      const std::string path = out_dir + "/" + reproducer_filename(repro);
      if (write_reproducer_file(path, repro))
        std::fprintf(stderr, "  reproducer: %s\n", path.c_str());
      else
        std::fprintf(stderr, "  cannot write reproducer %s\n", path.c_str());
    } else {
      std::fputs(reproducer_to_text(repro).c_str(), stdout);
    }
  }
  // Run-level counters land next to the per-case pipeline totals the
  // differential driver merged into `metrics`.
  metrics.counter("fuzz.cases")->add(report.cases);
  metrics.counter("fuzz.feasible")->add(report.feasible);
  metrics.counter("fuzz.infeasible")->add(report.infeasible);
  metrics.counter("fuzz.truncated")->add(report.truncated);
  metrics.counter("fuzz.divergences")->add(report.divergent.size());
  emit_observability(obs_cli, "fuzz", nullptr, &metrics, tracer.get());

  std::printf("%s\n", report.summary().c_str());
  return report.divergent.empty() ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  CliOptions cli;
  std::string socket_path;
  std::string tcp_host_port;
  int workers = 2;
  int max_queue = 64;
  double default_deadline = 0;
  std::string reqlog_path;
  int reqlog_sample = 1;
  double slow_ms = 0;
  double metrics_window_s = 300;
  int max_conns = 0;
  double idle_timeout_s = 0;
  int max_line_bytes = 1 << 20;
  int backlog = 128;
  for (int i = 2; i < argc; ++i) {
    const int used = parse_common_flag(argc, argv, i, &cli);
    if (used < 0) return 2;
    if (used > 0) {
      i += used - 1;
      continue;
    }
    if (!std::strcmp(argv[i], "--socket") && i + 1 < argc)
      socket_path = argv[++i];
    else if (!std::strcmp(argv[i], "--tcp") && i + 1 < argc)
      tcp_host_port = argv[++i];
    else if (!std::strcmp(argv[i], "--max-conns") && i + 1 < argc) {
      if (!parse_int("--max-conns", argv[++i], &max_conns)) return 2;
    } else if (!std::strcmp(argv[i], "--idle-timeout") && i + 1 < argc) {
      if (!parse_number("--idle-timeout", argv[++i], &idle_timeout_s))
        return 2;
    } else if (!std::strcmp(argv[i], "--max-line-bytes") && i + 1 < argc) {
      if (!parse_int("--max-line-bytes", argv[++i], &max_line_bytes))
        return 2;
    } else if (!std::strcmp(argv[i], "--backlog") && i + 1 < argc) {
      if (!parse_int("--backlog", argv[++i], &backlog)) return 2;
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      if (!parse_int("--workers", argv[++i], &workers)) return 2;
    } else if (!std::strcmp(argv[i], "--max-queue") && i + 1 < argc) {
      if (!parse_int("--max-queue", argv[++i], &max_queue)) return 2;
    } else if (!std::strcmp(argv[i], "--default-deadline") && i + 1 < argc) {
      if (!parse_number("--default-deadline", argv[++i], &default_deadline))
        return 2;
    } else if (!std::strcmp(argv[i], "--reqlog") && i + 1 < argc) {
      reqlog_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--reqlog-sample") && i + 1 < argc) {
      if (!parse_int("--reqlog-sample", argv[++i], &reqlog_sample)) return 2;
    } else if (!std::strcmp(argv[i], "--slow-ms") && i + 1 < argc) {
      if (!parse_number("--slow-ms", argv[++i], &slow_ms)) return 2;
    } else if (!std::strcmp(argv[i], "--metrics-window") && i + 1 < argc) {
      if (!parse_number("--metrics-window", argv[++i], &metrics_window_s))
        return 2;
    } else
      return usage(argv[0]);
  }

  std::unique_ptr<Tracer> tracer;
  if (!cli.trace_out.empty()) tracer = std::make_unique<Tracer>();
  MetricsRegistry metrics;
  bool cache_ok = true;
  std::unique_ptr<SolveCache> cache = make_cli_cache(cli, &cache_ok);
  if (!cache_ok) return 2;
  if (!cache) {
    // The shared cache is the service's raison d'être: serve always runs
    // one, flags or not (--cache-size still bounds it).
    CacheConfig config;
    config.max_bytes = static_cast<std::size_t>(cli.cache_size);
    cache = std::make_unique<SolveCache>(config);
  }

  // Rolling latency window: --metrics-window spans the whole ring across
  // a fixed 60 sub-windows (so a 300 s window rotates every 5 s).
  RollingWindow::Config wcfg;
  if (metrics_window_s < 1) metrics_window_s = 1;
  wcfg.sub_windows = 60;
  wcfg.sub_window_us = static_cast<std::uint64_t>(
      std::max(1.0, metrics_window_s * 1e6 / 60));
  RollingWindow window(wcfg);

  std::unique_ptr<RequestLog> reqlog;
  if (!reqlog_path.empty()) {
    ReqLogConfig rcfg;
    rcfg.path = reqlog_path;
    rcfg.sample_every =
        reqlog_sample < 0 ? 0 : static_cast<std::uint64_t>(reqlog_sample);
    rcfg.slow_us = static_cast<std::uint64_t>(slow_ms * 1000);
    reqlog = std::make_unique<RequestLog>(rcfg);
    if (!reqlog->ok()) {
      std::fprintf(stderr, "%s\n", reqlog->open_error().c_str());
      return 2;
    }
  }

  ServerConfig scfg;
  scfg.broker.workers = workers;
  scfg.broker.max_queue = static_cast<std::size_t>(max_queue);
  // --timeout doubles as the default per-request deadline; the broker
  // turns it into remaining-time budgets, so the base options carry none.
  scfg.broker.default_deadline_seconds =
      default_deadline > 0 ? default_deadline : cli.timeout_seconds;
  scfg.broker.base_options = to_solve_options(cli);
  scfg.broker.base_options.exec.timeout_seconds = 0;
  scfg.broker.cache = cache.get();
  scfg.broker.metrics = &metrics;
  scfg.broker.tracer = tracer.get();
  scfg.broker.window = &window;
  scfg.broker.reqlog = reqlog.get();
  scfg.max_conns = max_conns;
  scfg.idle_timeout_ms = static_cast<int>(idle_timeout_s * 1000);
  scfg.max_line_bytes =
      max_line_bytes < 1 ? 1 : static_cast<std::size_t>(max_line_bytes);
  scfg.backlog = backlog;

  if (!socket_path.empty() && !tcp_host_port.empty()) {
    std::fprintf(stderr, "--socket and --tcp are mutually exclusive\n");
    return 2;
  }
  Server server(std::move(scfg));
  ScopedDrainSignals signals(&server);
  int rc;
  if (!tcp_host_port.empty())
    rc = server.run_tcp(tcp_host_port);
  else if (!socket_path.empty())
    rc = server.run_unix_socket(socket_path);
  else
    rc = server.run_pipe(0, 1);
  if (rc != 0 && !server.last_error().empty())
    std::fprintf(stderr, "%s\n", server.last_error().c_str());
  // run_* returns only after the drain: every in-flight solve finished, so
  // the cache is quiescent for --cache-save and the counters are final.
  emit_observability(cli, "serve", nullptr, &metrics, tracer.get());
  finish_cli_cache(cli, cache.get());
  return rc == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "fuzz" || cmd == "serve") {
    try {
      return cmd == "fuzz" ? cmd_fuzz(argc, argv) : cmd_serve(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (argc < 3) return usage(argv[0]);
  CliOptions cli;
  for (int i = 3; i < argc; ++i) {
    const int used = parse_common_flag(argc, argv, i, &cli);
    if (used < 0) return 2;
    if (used > 0) {
      i += used - 1;
      continue;
    }
    if (!std::strcmp(argv[i], "--bits") && i + 1 < argc) {
      if (!parse_int("--bits", argv[++i], &cli.bits)) return 2;
    } else if (!std::strcmp(argv[i], "--exact"))
      cli.exact = true;
    else if (!std::strcmp(argv[i], "--cost") && i + 1 < argc) {
      const std::string c = argv[++i];
      if (c == "violated") cli.cost = CostKind::kViolatedFaces;
      else if (c == "cubes") cli.cost = CostKind::kCubes;
      else if (c == "literals") cli.cost = CostKind::kLiterals;
      else return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  try {
    if (cmd == "solve") return cmd_solve(argv[2], cli);
    const Fsm fsm = load(argv[2]);
    if (cmd == "analyze") return cmd_analyze(fsm);
    if (cmd == "constraints") return cmd_constraints(fsm);
    if (cmd == "encode") return cmd_encode(fsm, cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  return usage(argv[0]);
}
