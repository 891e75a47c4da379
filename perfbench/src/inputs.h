// Workload inputs. Every input is a pure function of the workload and the
// seed, so the same arguments give the same bytes.
//
// The machines behind each workload are fixed by the workload itself; the
// seed only renames symbols and reorders constraints, requests and
// machines. Different seeds therefore ask for the same amount of solver
// work, and the spread between seeds is host noise, not a different mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/constraints.h"

namespace perfbench {

class SpanRecorder;

/// One NDJSON solve request.
struct WireInput {
  std::string id;
  std::string text;  ///< constraint text, as the request carries it
  std::string line;  ///< the request line, without the newline
};

struct ServeInputs {
  /// Solved once per set-up before the warm-up: the pool pre-solve.
  std::vector<WireInput> presolve;
  /// Sent once per set-up after the pre-solve.
  std::vector<WireInput> warmup;
  /// The request list every timed round sends.
  std::vector<WireInput> timed;
  /// Machines behind the timed requests.
  std::size_t machines = 0;
  /// Hash of the seed-independent machine constraint sets, and of every
  /// request line in send order.
  std::uint64_t base_hash = 0;
  std::uint64_t seeded_hash = 0;
};

/// Builds the inputs of serve_repeat. With `spans`, each
/// generate_mixed_constraints call gets a span.
ServeInputs make_serve_inputs(std::uint64_t seed, SpanRecorder* spans);

struct SuiteMachine {
  std::string name;
  std::uint32_t states = 0;
  encodesat::ConstraintSet cs;
};

/// The suite's machine names in seeded order.
std::vector<std::string> suite_order(const std::string& workload,
                                     std::uint64_t seed);

/// The suite's set-up: synthesize each machine and derive its constraints
/// (mixed for suite_exact, input for suite_heuristic), with a span around
/// each generate_*_constraints call when `spans` is set.
std::vector<SuiteMachine> derive_suite(const std::string& workload,
                                       const std::vector<std::string>& order,
                                       SpanRecorder* spans);

/// Hashes of a derived suite: machine order independent, and as ordered.
std::uint64_t suite_base_hash(std::vector<SuiteMachine> machines);
std::uint64_t suite_seeded_hash(const std::vector<SuiteMachine>& machines);

}  // namespace perfbench
