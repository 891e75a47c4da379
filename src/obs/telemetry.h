// Versioned telemetry report ("encodesat-telemetry-v2").
//
// One JSON object unifying the observability surfaces:
//
//   {"schema":"encodesat-telemetry-v2",
//    "tool":"solve",                       // emitting binary/subcommand
//    "stats":{...} | null,                 // the run's StageStats tree
//    "counters":{"name":value,...},        // MetricsRegistry, name-sorted
//    "counter_fingerprint":"<16 hex>",     // FNV-1a of the fingerprint
//    "gauges":{"name":value,...},          // point-in-time values supplied
//                                          // by the caller (queue depth,
//                                          // window rates/percentiles)
//    "histograms":{"name":{"count":n,"sum":n,
//                          "buckets":{"<boundary>":count,...,"+inf":n}}},
//    "process":{"parallel_calls":n,        // pool_counters(): scheduling-
//               "tasks":n,                 // dependent, never fingerprinted
//               "workers_spawned":n},
//    "trace":{"events":n,"dropped":n,"dropped_spans":n} | null}
//
// v2 additions over v1: the "gauges" and "histograms" blocks and the
// trace "dropped_spans" field. Histogram bucket keys are the shared
// boundary table of obs/histogram.h; only non-empty buckets appear.
//
// Emitted by the solve/encode/fuzz/serve CLI subcommands (--stats-out)
// and, per case, by the primes benchmark. Everything except the "process"
// section, "gauges", StageStats elapsed times and duration-histogram
// contents is deterministic across thread counts. See
// docs/OBSERVABILITY.md for the field catalog.
//
// render_prometheus_text() renders the same counters/gauges/histograms as
// a Prometheus-style text exposition (`# TYPE` lines, `_bucket{le="..."}`
// cumulative series) for the `metrics` server op; see docs/SERVICE.md.
#pragma once

#include <string>
#include <vector>

#include "util/exec.h"

namespace encodesat {

class MetricsRegistry;
class Tracer;

inline constexpr const char* kTelemetrySchema = "encodesat-telemetry-v2";

/// One point-in-time value sampled by the caller at render time (queue
/// depth, in-flight count, rolling-window rates and percentiles). Doubles,
/// because window rates are fractional; integral gauges render exactly.
struct TelemetryGauge {
  std::string name;
  double value = 0;
};

struct TelemetryOptions {
  /// Name of the emitting tool/subcommand (e.g. "solve", "fuzz").
  const char* tool = "unknown";
  /// Stage tree to embed under "stats"; null emits `"stats":null`.
  const StageStats* stats = nullptr;
  /// Counter registry for "counters"/"counter_fingerprint"/"histograms";
  /// null emits empty objects with the fingerprint of the empty registry.
  const MetricsRegistry* metrics = nullptr;
  /// Tracer whose event totals go under "trace"; null emits `"trace":null`.
  const Tracer* tracer = nullptr;
  /// Gauges for the "gauges" block, emitted in the given order.
  std::vector<TelemetryGauge> gauges;
};

/// Serializes one telemetry report (single line, no trailing newline).
std::string telemetry_to_json(const TelemetryOptions& opts);

/// Renders counters, gauges and histograms as Prometheus-style text
/// exposition: names prefixed `encodesat_` with dots mapped to
/// underscores, `# TYPE` comment per family, histogram families as
/// cumulative `_bucket{le="..."}` series (non-empty buckets plus
/// `le="+Inf"`) with `_sum` and `_count`. Ends with a newline.
std::string render_prometheus_text(const TelemetryOptions& opts);

/// `fingerprint_hash()` rendered as the canonical 16-digit lowercase hex
/// string used in telemetry and fuzz divergence messages.
std::string fingerprint_hex(std::uint64_t hash);

}  // namespace encodesat
