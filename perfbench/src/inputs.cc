#include "inputs.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "service/json.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using encodesat::BenchmarkSpec;
using encodesat::ConstraintGenOptions;
using encodesat::ConstraintSet;
using encodesat::Fsm;
using encodesat::Rng;

// The machine stream of serve_repeat's pool: fixed, seed-independent.
constexpr std::uint64_t kRepeatPoolStream = 0x5e77e0000001ull;

constexpr std::size_t kRepeatPool = 16;         // machines in the pool
constexpr std::size_t kRepeatPerRound = 4000;   // requests per round

// Incremental 64-bit FNV-1a.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // record separator
    h *= 0x100000001b3ull;
  }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a ^ (b * 0x9e3779b97f4a7c15ull));
  return rng.next_u64();
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

// A 6-10 state machine of the given stream, as make_mcnc_like synthesizes
// it.
BenchmarkSpec serve_spec(std::uint64_t stream, std::size_t index) {
  Rng rng(mix(stream, index));
  BenchmarkSpec spec;
  spec.name = "m" + std::to_string(index);
  spec.states = static_cast<int>(rng.next_in(6, 10));
  spec.inputs = static_cast<int>(rng.next_in(2, 6));
  spec.outputs = static_cast<int>(rng.next_in(1, 4));
  spec.group_size = static_cast<int>(rng.next_in(2, 4));
  spec.seed = rng.next_u64();
  return spec;
}

ConstraintGenOptions mixed_options(std::uint32_t states) {
  // Table 1's scaling of the output-constraint budget with machine size.
  ConstraintGenOptions g;
  g.max_dominance = static_cast<int>(states) * 2;
  g.max_disjunctive = static_cast<int>(states) / 4;
  return g;
}

// Constraint sets of machines [0, count) of a stream.
std::vector<ConstraintSet> serve_machines(std::uint64_t stream,
                                          std::size_t count,
                                          SpanRecorder* spans) {
  std::vector<ConstraintSet> sets;
  for (std::size_t i = 0; i < count; ++i) {
    const Fsm fsm = encodesat::make_mcnc_like(serve_spec(stream, i));
    std::optional<ScopedSpan> span;
    if (spans) span.emplace(*spans, "generate_mixed_constraints", fsm.name);
    sets.push_back(encodesat::generate_mixed_constraints(
        fsm, mixed_options(fsm.num_states())));
  }
  return sets;
}

// The same instance under fresh symbol names, with symbols, constraints and
// face members in a new order.
std::string renamed_text(const ConstraintSet& base, Rng& rng) {
  if (!base.extended_disjunctives().empty() || !base.distance2s().empty() ||
      !base.nonfaces().empty())
    throw std::logic_error("serve inputs carry face/output constraints only");
  const std::uint32_t n = base.num_symbols();
  std::vector<std::string> names(n);
  ConstraintSet out;
  for (std::uint32_t i = 0; i < n; ++i) {
    do {
      names[i] = "q";
      for (int k = 0; k < 5; ++k)
        names[i] += "0123456789abcdefghijklmnopqrstuvwxyz"[rng.next_below(36)];
    } while (std::count(names.begin(), names.begin() + i, names[i]) != 0);
  }
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  shuffle(order, rng);
  for (std::uint32_t i : order) out.symbols().intern(names[i]);
  auto ids = [&](std::vector<std::uint32_t> v) {
    shuffle(v, rng);
    std::vector<std::uint32_t> mapped;
    for (std::uint32_t id : v) mapped.push_back(out.symbols().at(names[id]));
    return mapped;
  };
  auto faces = base.faces();
  shuffle(faces, rng);
  for (const auto& f : faces) out.add_face_ids(ids(f.members), ids(f.dontcares));
  auto doms = base.dominances();
  shuffle(doms, rng);
  for (const auto& d : doms)
    out.add_dominance_ids(out.symbols().at(names[d.dominator]),
                          out.symbols().at(names[d.dominated]));
  auto disj = base.disjunctives();
  shuffle(disj, rng);
  for (const auto& d : disj)
    out.add_disjunctive_ids(out.symbols().at(names[d.parent]), ids(d.children));
  return out.to_string();
}

WireInput wire(std::string id, std::string text) {
  WireInput w;
  w.id = std::move(id);
  w.line = "{\"id\":\"" + w.id + "\",\"constraints\":\"" +
           encodesat::json_escape(text) + "\"}";
  w.text = std::move(text);
  return w;
}

const std::vector<std::string>& suite_names(const std::string& workload) {
  // Table 1's machines of at most 20 states, and Table 2's machines
  // without planet and viterbi.
  static const std::vector<std::string> kExact = {
      "bbsse", "cse", "dk512", "exlinp", "keyb",
      "kirkman", "master", "s1", "s1a"};
  static const std::vector<std::string> kHeuristic = {
      "bbsse", "cse", "dk16", "dk512", "donfile", "ex1", "kirkman",
      "master", "s1", "sand", "styr", "tbk", "vmecont"};
  if (workload == "suite_exact") return kExact;
  if (workload == "suite_heuristic") return kHeuristic;
  throw std::invalid_argument("unknown suite " + workload);
}

}  // namespace

ServeInputs make_serve_inputs(std::uint64_t seed, SpanRecorder* spans) {
  ServeInputs in;
  const std::vector<ConstraintSet> pool =
      serve_machines(kRepeatPoolStream, kRepeatPool, spans);
  Fnv base;
  for (const ConstraintSet& cs : pool) base.add(cs.to_string());
  in.machines = pool.size();
  for (std::size_t m = 0; m < pool.size(); ++m)
    in.presolve.push_back(wire("p" + std::to_string(m), pool[m].to_string()));
  // Every pool member equally often, in seeded order; each timed request
  // is a seeded renaming of its member's constraints.
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < kRepeatPerRound; ++i)
    members.push_back(i % pool.size());
  Rng order(mix(seed, 0));
  shuffle(members, order);
  for (std::size_t i = 0; i < members.size(); ++i) {
    Rng rng(mix(mix(seed, static_cast<unsigned char>('r')), i));
    in.timed.push_back(
        wire("r" + std::to_string(i), renamed_text(pool[members[i]], rng)));
  }
  in.warmup = in.timed;
  Fnv seeded;
  for (const auto* list : {&in.presolve, &in.warmup, &in.timed})
    for (const WireInput& w : *list) seeded.add(w.line);
  in.base_hash = base.h;
  in.seeded_hash = seeded.h;
  return in;
}

std::vector<std::string> suite_order(const std::string& workload,
                                     std::uint64_t seed) {
  std::vector<std::string> names = suite_names(workload);
  Rng rng(mix(seed, 0x5017e));
  shuffle(names, rng);
  return names;
}

std::vector<SuiteMachine> derive_suite(const std::string& workload,
                                       const std::vector<std::string>& order,
                                       SpanRecorder* spans) {
  const bool exact = workload == "suite_exact";
  std::vector<SuiteMachine> out;
  for (const std::string& name : order) {
    const Fsm fsm = encodesat::make_mcnc_like(encodesat::benchmark_spec(name));
    SuiteMachine m;
    m.name = name;
    m.states = fsm.num_states();
    {
      std::optional<ScopedSpan> span;
      if (spans)
        span.emplace(*spans,
                     exact ? "generate_mixed_constraints"
                           : "generate_input_constraints",
                     name);
      m.cs = exact ? encodesat::generate_mixed_constraints(
                         fsm, mixed_options(m.states))
                   : encodesat::generate_input_constraints(fsm);
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::uint64_t suite_base_hash(std::vector<SuiteMachine> machines) {
  std::sort(machines.begin(), machines.end(),
            [](const SuiteMachine& a, const SuiteMachine& b) {
              return a.name < b.name;
            });
  return suite_seeded_hash(machines);
}

std::uint64_t suite_seeded_hash(const std::vector<SuiteMachine>& machines) {
  Fnv h;
  for (const SuiteMachine& m : machines) {
    h.add(m.name);
    h.add(m.cs.to_string());
  }
  return h.h;
}

}  // namespace perfbench
