#include "obs/reqlog.h"

#include <iostream>
#include <sstream>

#include "util/strings.h"

namespace encodesat {

namespace {

void string_field(std::ostream& out, const char* key, const std::string& v) {
  out << '"' << key << "\":\"" << json_escape(v) << '"';
}

}  // namespace

RequestLog::RequestLog(ReqLogConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.path == "-") {
    out_ = &std::cerr;
    return;
  }
  file_.open(cfg_.path, std::ios::out | std::ios::app);
  if (!file_) {
    error_ = "cannot open request log '" + cfg_.path + "'";
    return;
  }
  out_ = &file_;
}

bool RequestLog::log(const ReqLogRecord& rec) {
  if (!out_) return false;
  const bool slow = cfg_.slow_us > 0 && rec.total_us >= cfg_.slow_us;
  std::lock_guard<std::mutex> lock(mu_);
  bool write = rec.error || slow;
  if (!write && cfg_.sample_every > 0)
    write = (seq_++ % cfg_.sample_every) == 0;
  if (!write) return false;

  std::ostringstream line;
  line << "{\"schema\":\"encodesat-reqlog-v1\",";
  string_field(line, "id", rec.id);
  line << ',';
  string_field(line, "status", rec.status);
  line << ',';
  string_field(line, "disposition", rec.disposition);
  line << ",\"queue_us\":" << rec.queue_us
       << ",\"solve_us\":" << rec.solve_us
       << ",\"total_us\":" << rec.total_us << ",\"truncation\":\""
       << rec.truncation << "\",\"work\":" << rec.work
       << ",\"slow\":" << (slow ? "true" : "false") << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : rec.counters) {
    if (!first) line << ',';
    first = false;
    line << '"' << json_escape(name) << "\":" << value;
  }
  line << '}';
  if (slow && rec.stats) line << ",\"spans\":" << rec.stats->to_json();
  line << "}\n";

  (*out_) << line.str();
  out_->flush();
  ++lines_;
  return true;
}

}  // namespace encodesat
