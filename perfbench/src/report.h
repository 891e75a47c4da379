// The run's report: every metric by name with its unit and sample count,
// the noise diagnostics, the answer-check outcome, and the one-line JSON
// result that ends standard output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A metric as BENCHMARK.json lists it.
struct ListedMetric {
  std::string name;
  std::string unit;
};

/// BENCHMARK.json's metric lists: the one place that says which metrics the
/// JSON result carries.
struct MetricLists {
  std::vector<ListedMetric> end_to_end;
  std::vector<ListedMetric> per_layer;
};

/// Reads the lists from BENCHMARK.json at `path`; throws when it cannot.
MetricLists read_metric_lists(const std::string& path);

/// Shortest decimal text that reads back as the same double.
std::string number_text(double v);

class Report {
 public:
  explicit Report(MetricLists lists) : lists_(std::move(lists)) {}

  /// Records a metric; `samples` says what the value summarizes.
  void set(const std::string& name, double value, const char* unit,
           std::string samples);
  bool has(const std::string& name) const { return find(name) != nullptr; }

  /// A diagnostic line printed beside the metrics (not a metric).
  void note(std::string line) { notes_.push_back(std::move(line)); }
  /// A failed check: printed, and the run reports correct = false.
  void fail(std::string why) { failures_.push_back(std::move(why)); }
  bool correct() const { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the metrics and notes, then the JSON result as the last line.
  /// It carries BENCHMARK.json's end-to-end metrics in an untraced run,
  /// each of which must have been measured, and its per-layer metrics in a
  /// traced one (0 for a layer the workload does not run). A listed metric
  /// recorded with another unit, or a traced metric the list lacks, fails
  /// the run. Returns the `correct` it printed.
  bool print(bool traced) const;

 private:
  struct Value {
    std::string name;
    double value = 0;
    std::string unit;
    std::string samples;
  };
  const Value* find(const std::string& name) const;

  MetricLists lists_;
  std::vector<Value> values_;  // in the order set
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
