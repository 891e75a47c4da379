// In-memory span recorder for the traced mode: the harness opens a span
// around each call it makes into a layer's public function. Spans are kept
// in memory and written once, at exit, as Chrome trace-event JSON.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Span {
  const char* name;     ///< a string literal
  std::string request;  ///< request id (or machine name) the span serves
  double start_us = 0;  ///< since the recorder was created
  double end_us = 0;
  int parent = -1;      ///< index of the enclosing span, -1 for a root
  double duration_us() const { return end_us - start_us; }
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing; begin() returns -1.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span. Returns its index.
  int begin(const char* name, const std::string& request);
  /// Closes the innermost open span, which must be `index`.
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children, per span.
  std::vector<double> self_us() const;

  /// Durations (µs) of every span named `name`.
  std::vector<double> durations(std::string_view name) const;

  /// Writes {"traceEvents":[...]} to `path`. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_us() const { return seconds_between(epoch_, Clock::now()) * 1e6; }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, const std::string& request)
      : rec_(rec), index_(rec.begin(name, request)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
