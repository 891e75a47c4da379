#include "layers.h"

#include <numeric>

#include "measure.h"

namespace perfbench {
namespace {


// Stage name in the StageStats tree -> metric prefix.
constexpr std::pair<const char*, const char*> kStages[] = {
    {"canonicalize", "cache.canonicalize"},
    {"cache_lookup", "cache.lookup"},
    {"initial_dichotomies", "core.initial"},
    {"raise", "core.raise"},
    {"prime_generation", "core.primes"},
    {"validate_primes", "core.validate"},
    {"cover_table", "core.cover_table"},
    {"unate_cover", "covering.unate"},
};

double pct(std::uint64_t part, std::uint64_t whole) {
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> kNames = {
      "primes.fold_work",         "primes.sop_terms",     "cover.nodes",
      "primes.validate_attempts", "primes.validate_kept", "bounded.evals",
      "cache.hits",               "cache.misses",         "cache.coalesced",
  };
  return kNames;
}

Counters read_counters(encodesat::MetricsRegistry& metrics) {
  Counters c;
  for (const std::string& name : counter_names()) {
    // The first registration fixes a counter's fingerprint flag: give the
    // cache counters the flag the solver gives them.
    const bool fingerprint = name.rfind("cache.", 0) != 0;
    c[name] = metrics.counter(name, fingerprint)->value();
  }
  return c;
}

Counters counter_delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, v] : after) d[name] = v - before.at(name);
  return d;
}

std::vector<std::pair<std::string, double>> recorded_counts(
    const Counters& per_round) {
  std::vector<std::pair<std::string, double>> out;
  for (const char* name :
       {"primes.fold_work", "primes.sop_terms", "cover.nodes", "bounded.evals"})
    out.emplace_back(name, static_cast<double>(per_round.at(name)));
  return out;
}

void set_call_metrics(Report& rep, const std::string& prefix,
                      const std::vector<double>& us, const std::string& what) {
  if (us.empty()) return;
  const std::string n = std::to_string(us.size()) + " " + what;
  rep.set(prefix + "_us", median(us), "us", "median of " + n);
  rep.set(prefix + "_total_ms",
          std::accumulate(us.begin(), us.end(), 0.0) / 1e3, "ms", "sum of " + n);
}

void set_gen_metric(Report& rep, const SpanRecorder& spans, const char* name) {
  const std::vector<double> us = spans.durations(name);
  rep.set("fsm.constraint_gen_s",
          std::accumulate(us.begin(), us.end(), 0.0) / 1e6, "s",
          "sum of " + std::to_string(us.size()) + " " + name + " calls");
}

void set_stage_metrics(Report& rep,
                       const std::vector<encodesat::StageStats>& solves) {
  for (const auto& [stage, prefix] : kStages) {
    std::vector<double> us;
    std::uint64_t truncated = 0;
    for (const encodesat::StageStats& s : solves)
      if (const encodesat::StageStats* node = s.find(stage)) {
        us.push_back(node->elapsed_seconds * 1e6);
        if (node->truncation != encodesat::Truncation::kNone) ++truncated;
      }
    set_call_metrics(rep, prefix, us, std::string(stage) + " stages");
    if (us.empty()) continue;
    const std::string n = "of " + std::to_string(us.size()) + " " + stage +
                          " stages";
    if (std::string(stage) == "prime_generation")
      rep.set("core.primes_truncated_pct", pct(truncated, us.size()), "%",
              "share " + n);
    if (std::string(stage) == "unate_cover")
      rep.set("covering.unate_truncated_pct", pct(truncated, us.size()), "%",
              "share " + n);
  }
}

void set_counter_metrics(Report& rep, const Counters& delta) {
  if (rep.has("core.primes_us")) {
    rep.set("core.primes_work", static_cast<double>(delta.at("primes.fold_work")),
            "count", "primes.fold_work counter, summed");
    rep.set("core.primes_terms",
            static_cast<double>(delta.at("primes.sop_terms")), "count",
            "primes.sop_terms counter, summed");
  }
  const std::uint64_t attempts = delta.at("primes.validate_attempts");
  if (attempts > 0)
    rep.set("core.validate_kept_pct",
            pct(delta.at("primes.validate_kept"), attempts), "%",
            "primes.validate_kept of " + std::to_string(attempts) +
                " primes.validate_attempts");
  if (rep.has("covering.unate_us"))
    rep.set("covering.unate_nodes", static_cast<double>(delta.at("cover.nodes")),
            "count", "cover.nodes counter, summed");
  if (delta.at("bounded.evals") > 0)
    rep.set("core.bounded_evals", static_cast<double>(delta.at("bounded.evals")),
            "count", "bounded.evals counter, summed");
  const std::uint64_t served = delta.at("cache.hits") + delta.at("cache.coalesced");
  const std::uint64_t lookups = served + delta.at("cache.misses");
  if (lookups > 0)
    rep.set("cache.hit_pct", pct(served, lookups), "%",
            "(hits + coalesced) of " + std::to_string(lookups) + " lookups");
}

void check_counts_repeat(Report& rep, const Counters& a, const Counters& b) {
  for (const auto& [name, v] : a)
    if (b.at(name) != v)
      rep.fail("determinism: counter " + name + " read " + std::to_string(v) +
               " in one replay and " + std::to_string(b.at(name)) +
               " in the other");
}

}  // namespace perfbench
