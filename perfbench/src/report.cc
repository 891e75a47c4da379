#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/json.h"

namespace perfbench {
namespace {

std::vector<ListedMetric> listed(const encodesat::JsonValue& doc,
                                 const std::string& key) {
  const encodesat::JsonValue* list = doc.find(key);
  if (!list || list->array.empty())
    throw std::runtime_error("BENCHMARK.json has no " + key + " list");
  std::vector<ListedMetric> out;
  for (const encodesat::JsonValue& m : list->array) {
    const encodesat::JsonValue* name = m.find("name");
    const encodesat::JsonValue* unit = m.find("unit");
    if (!name || !name->is_string() || !unit || !unit->is_string())
      throw std::runtime_error("BENCHMARK.json: a " + key +
                               " entry lacks a name or unit");
    out.push_back({name->str, unit->str});
  }
  return out;
}

void row(const std::string& name, double value, const std::string& unit,
         const std::string& samples) {
  std::printf("  %-30s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              samples.c_str());
}

}  // namespace

MetricLists read_metric_lists(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  encodesat::JsonValue doc;
  std::string error;
  if (!in || !encodesat::json_parse(text.str(), &doc, &error))
    throw std::runtime_error("cannot read " + path + ": " +
                             (error.empty() ? "unreadable" : error));
  return {listed(doc, "end_to_end"), listed(doc, "per_layer")};
}

std::string number_text(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void Report::set(const std::string& name, double value, const char* unit,
                 std::string samples) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0;
  }
  for (Value& v : values_)
    if (v.name == name) {
      v = {name, value, unit, std::move(samples)};
      return;
    }
  values_.push_back({name, value, unit, std::move(samples)});
}

const Report::Value* Report::find(const std::string& name) const {
  for (const Value& v : values_)
    if (v.name == name) return &v;
  return nullptr;
}

bool Report::print(bool traced) const {
  const std::vector<ListedMetric>& list =
      traced ? lists_.per_layer : lists_.end_to_end;
  std::vector<std::string> problems;
  if (traced) {
    std::printf("per-layer metrics (traced run):\n");
    for (const ListedMetric& m : list)
      if (const Value* v = find(m.name))
        row(v->name, v->value, v->unit, v->samples);
      else
        row(m.name, 0, m.unit, "layer not run on this workload");
    for (const Value& v : values_) {
      bool in_list = false;
      for (const ListedMetric& m : list) in_list |= m.name == v.name;
      if (!in_list)
        problems.push_back("metric " + v.name +
                           " is not in BENCHMARK.json's per_layer list");
    }
  } else {
    std::printf("end-to-end metrics (untraced run):\n");
    for (const Value& v : values_) row(v.name, v.value, v.unit, v.samples);
    for (const ListedMetric& m : list)
      if (!find(m.name))
        problems.push_back("end-to-end metric " + m.name + " was not measured");
  }
  for (const ListedMetric& m : list)
    if (const Value* v = find(m.name); v && v->unit != m.unit)
      problems.push_back("metric " + m.name + " is measured in " + v->unit +
                         ", BENCHMARK.json says " + m.unit);
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());
  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());

  const bool ok = correct() && problems.empty();
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Value* v = find(list[i].name);
    json += (i ? ", \"" : "\"") + list[i].name + "\": {\"value\": " +
            number_text(v ? v->value : 0) + ", \"unit\": \"" + list[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok;
}

}  // namespace perfbench
