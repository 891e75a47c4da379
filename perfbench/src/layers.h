// Per-layer metrics of the traced run, shared by the serve and suite
// replays: stage times from the StageStats trees solve() returns, work
// counts from the library's counters, and call times from the harness's
// own spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "report.h"
#include "spans.h"
#include "util/exec.h"

namespace perfbench {

/// The counters the per-layer metrics and the recorded values read.
using Counters = std::map<std::string, std::uint64_t>;
const std::vector<std::string>& counter_names();
Counters read_counters(encodesat::MetricsRegistry& metrics);
Counters counter_delta(const Counters& after, const Counters& before);

/// The work counts a round must repeat exactly, by the names perfbench/
/// fingerprints.txt records them under.
std::vector<std::pair<std::string, double>> recorded_counts(
    const Counters& per_round);

/// `<prefix>_us` (median per call) and `<prefix>_total_ms` (sum) from call
/// durations in µs; nothing when there were no calls.
void set_call_metrics(Report& rep, const std::string& prefix,
                      const std::vector<double>& us, const std::string& what);

/// fsm.constraint_gen_s: the summed durations of the `name` spans.
void set_gen_metric(Report& rep, const SpanRecorder& spans, const char* name);

/// Stage times and truncation shares of the solves' stage trees.
void set_stage_metrics(Report& rep,
                       const std::vector<encodesat::StageStats>& solves);

/// Work counts and ratios from the counter deltas of the replay; call
/// after set_stage_metrics.
void set_counter_metrics(Report& rep, const Counters& delta);

/// Fails the run when two replays of the same inputs disagree on a count.
void check_counts_repeat(Report& rep, const Counters& a, const Counters& b);

}  // namespace perfbench
