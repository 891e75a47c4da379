// perfbench — the encodesat benchmark harness (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cli PATH --benchmark BENCHMARK.json --out DIR
//             --fingerprints FILE [--inputs-only]
//
// Prints every metric by name with its unit and sample count, the noise
// diagnostics and the answer check, and ends standard output with one JSON
// result line. Exits 0 only when every check passed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "measure.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The value recorded for (workload, scope, name), or "" when none is.
// File lines: "<workload> <base|seed=N> <name> <value>"; '#' starts a
// comment line.
std::string recorded(const Options& opt, const std::string& scope,
                     const std::string& name) {
  std::ifstream in(opt.fingerprints);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, s, n, value;
    if (!(fields >> workload >> s >> n >> value) || workload[0] == '#') continue;
    if (workload == opt.workload && s == scope && n == name) return value;
  }
  return "";
}

std::string status(const std::string& want, const std::string& got) {
  return want.empty() ? " (not recorded)" : want == got ? " (matches)" : " (MISMATCH)";
}

}  // namespace

bool accept_inputs(const Options& opt, std::uint64_t base_hash,
                   std::uint64_t seeded_hash, Report& rep) {
  std::string line;
  bool ok = true;
  for (const auto& [scope, hash] :
       {std::pair{std::string("base"), base_hash},
        std::pair{"seed=" + std::to_string(opt.seed), seeded_hash}}) {
    const std::string want = recorded(opt, scope, "inputs");
    if (opt.inputs_only)
      std::printf("%s %s inputs %s\n", opt.workload.c_str(), scope.c_str(),
                  hex(hash).c_str());
    line += " " + scope + "=" + hex(hash) + status(want, hex(hash));
    if (!want.empty() && want != hex(hash)) ok = false;
  }
  if (!ok)
    throw std::runtime_error(
        "input fingerprint mismatch:" + line +
        ". The generated inputs changed, so this is a new workload: record "
        "its fingerprints instead of comparing its timings.");
  rep.note("input fingerprint:" + line);
  return !opt.inputs_only;
}

void check_recorded(const Options& opt,
                    const std::vector<std::pair<std::string, double>>& values,
                    Report& rep) {
  const std::string seed_scope = "seed=" + std::to_string(opt.seed);
  std::string line;
  for (const auto& [name, value] : values) {
    const std::string got = number_text(value);
    std::string scope = seed_scope;
    std::string want = recorded(opt, scope, name);
    if (want.empty()) want = recorded(opt, scope = "base", name);
    line += " " + name + "=" + got + status(want, got);
    if (!want.empty() && want != got)
      rep.fail("recorded value mismatch: " + name + " is " + got + ", " +
               opt.workload + " " + scope + " records " + want +
               ". The workload no longer does the recorded work or gives the "
               "recorded answers (a budget or clock may have cut it short).");
  }
  rep.note("recorded values:" + line);
}

void write_trace(const Options& opt, const SpanRecorder& spans, Report& rep) {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  if (spans.write_chrome_trace(path))
    rep.note("trace: " + std::to_string(spans.spans().size()) + " spans in " +
             path);
  else
    rep.note("trace: could not write " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.out_dir = ".bench_build";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--inputs-only") opt.inputs_only = true;
    else if (a == "--workload" && has_value) opt.workload = argv[++i];
    else if (a == "--seed" && has_value) opt.seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has_value) opt.seconds = std::stoi(argv[++i]);
    else if (a == "--trace" && has_value) opt.trace = std::strcmp(argv[++i], "0") != 0;
    else if (a == "--cli" && has_value) opt.cli = argv[++i];
    else if (a == "--out" && has_value) opt.out_dir = argv[++i];
    else if (a == "--fingerprints" && has_value) opt.fingerprints = argv[++i];
    else if (a == "--benchmark" && has_value) opt.benchmark = argv[++i];
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const bool serve = opt.workload == "serve_repeat";
  const bool suite =
      opt.workload == "suite_exact" || opt.workload == "suite_heuristic";
  if ((!serve && !suite) || opt.seconds < 1 || (serve && opt.cli.empty()) ||
      opt.benchmark.empty() || !std::ifstream(opt.fingerprints)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_repeat|suite_exact|"
                 "suite_heuristic --seed N --seconds S --trace 0|1 "
                 "--cli ENCODESAT_CLI --benchmark BENCHMARK.json "
                 "--fingerprints FILE [--out DIR] [--inputs-only]\n");
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);

  MetricLists lists;
  try {
    lists = read_metric_lists(opt.benchmark);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Report rep(std::move(lists));
  const double calib_before = calibration_ms();
  const HostCpu host0 = read_host_cpu();
  try {
    if (serve)
      run_serve(opt, rep);
    else
      run_suite(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.inputs_only) return rep.correct() ? 0 : 1;
  const HostCpu host1 = read_host_cpu();
  const double calib_after = calibration_ms();
  char noise[200];
  std::snprintf(noise, sizeof noise,
                "noise: host CPU steal %.2f%% over the run; calibration loop "
                "%.2f ms before, %.2f ms after",
                steal_pct(host0, host1), calib_before, calib_after);
  rep.note(noise);
  return rep.print(opt.trace) ? 0 : 1;
}
