// The three workloads. Each runner builds its inputs, has them checked
// against the recorded fingerprints, sets up, runs its timed rounds (or,
// traced, its in-process replay), checks every answer and fills the report.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

class SpanRecorder;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 15;
  bool trace = false;
  /// Generate the inputs, print their fingerprints and stop.
  bool inputs_only = false;
  std::string cli;           ///< encodesat_cli binary (serve workloads)
  std::string out_dir;       ///< sockets, server logs, trace files
  std::string fingerprints;  ///< recorded input fingerprints and values
  std::string benchmark;     ///< BENCHMARK.json: the metric lists
};

/// Set-ups timed per run, spread evenly between the timed rounds, so that
/// they sample the host over the whole run as the rounds do. setup_s is
/// their median. suite_heuristic times three times as many.
inline constexpr int kSetups = 12;
/// No set-up, and no timed round but the first after a set-up, starts
/// after kRoundGuard x --seconds (on the suites, none that would end after
/// it at the last round's pace): a slow host runs fewer rounds instead of
/// overrunning the run's time.
inline constexpr double kRoundGuard = 1.25;

/// Compares the inputs' fingerprints with the recorded ones and notes them
/// (prints them with inputs_only). Throws on a mismatch; returns false
/// when the run should stop after the inputs.
bool accept_inputs(const Options& opt, std::uint64_t base_hash,
                   std::uint64_t seeded_hash, Report& rep);

/// Compares each (name, value) with the value perfbench/fingerprints.txt
/// records for this workload (for this seed, else for every seed), and
/// notes them. A mismatch fails the run: the work counts, the cache share
/// and the answers' quality repeat exactly across runs, so a change means
/// the workload changed or a clock cut it short.
void check_recorded(const Options& opt,
                    const std::vector<std::pair<std::string, double>>& values,
                    Report& rep);

/// Writes the traced run's spans to <out>/trace-<workload>-<seed>.json.
void write_trace(const Options& opt, const SpanRecorder& spans, Report& rep);

void run_serve(const Options& opt, Report& rep);
void run_suite(const Options& opt, Report& rep);

}  // namespace perfbench
