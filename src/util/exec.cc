#include "util/exec.h"

#include <cstring>
#include <sstream>

#include "util/strings.h"

namespace encodesat {

const char* truncation_name(Truncation t) {
  switch (t) {
    case Truncation::kNone: return "none";
    case Truncation::kDeadline: return "deadline";
    case Truncation::kWorkBudget: return "work_budget";
    case Truncation::kTermLimit: return "term_limit";
    case Truncation::kNodeLimit: return "node_limit";
    case Truncation::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool truncation_from_name(const char* name, Truncation* out) {
  for (Truncation t :
       {Truncation::kNone, Truncation::kDeadline, Truncation::kWorkBudget,
        Truncation::kTermLimit, Truncation::kNodeLimit, Truncation::kCancelled})
    if (!std::strcmp(name, truncation_name(t))) {
      if (out) *out = t;
      return true;
    }
  return false;
}

StageStats* StageStats::add_child(const std::string& child_name) {
  children.emplace_back(child_name);
  return &children.back();
}

const StageStats* StageStats::find(const std::string& stage_name) const {
  if (name == stage_name) return this;
  for (const StageStats& c : children)
    if (const StageStats* hit = c.find(stage_name)) return hit;
  return nullptr;
}

namespace {

void emit_json(const StageStats& s, std::ostream& out) {
  out << "{\"name\":\"" << json_escape(s.name)
      << "\",\"elapsed_s\":" << s.elapsed_seconds << ",\"work\":" << s.work
      << ",\"items\":" << s.items << ",\"truncation\":\""
      << truncation_name(s.truncation) << "\",\"children\":[";
  for (std::size_t i = 0; i < s.children.size(); ++i) {
    if (i) out << ',';
    emit_json(s.children[i], out);
  }
  out << "]}";
}

}  // namespace

std::string StageStats::to_json() const {
  std::ostringstream out;
  emit_json(*this, out);
  return out.str();
}

StageScope::StageScope(const ExecContext& parent, const char* stage_name)
    : ctx_{parent.budget,
           parent.stats ? parent.stats->add_child(stage_name) : nullptr,
           parent.num_threads, parent.tracer, parent.metrics},
      name_(stage_name),
      start_(Budget::Clock::now()) {
  if (ctx_.tracer) ctx_.tracer->begin_span(name_);
}

StageScope::~StageScope() {
  if (ctx_.stats)
    ctx_.stats->elapsed_seconds =
        std::chrono::duration<double>(Budget::Clock::now() - start_).count();
  if (ctx_.tracer) ctx_.tracer->end_span(name_);
}

}  // namespace encodesat
