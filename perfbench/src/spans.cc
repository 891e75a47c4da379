#include "spans.h"

#include <fstream>

#include "service/json.h"

namespace perfbench {

int SpanRecorder::begin(const char* name, const std::string& request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].duration_us();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_us();
  return self;
}

std::vector<double> SpanRecorder::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.duration_us());
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<double> self = self_us();
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\""
        << encodesat::json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << s.start_us << ",\"dur\":" << s.duration_us()
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"self_us\":" << self[i]
        << ",\"request\":\"" << encodesat::json_escape(s.request) << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
