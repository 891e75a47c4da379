// Tests for the solve service (src/service/) and its foundations: the JSON
// parser, the NDJSON protocol codec, single-flight coalescing through the
// facade (the table's own protocol is in inflight_test.cc), the broker's
// admission / deadline / drain semantics, and the pipe-mode server end to
// end (including SIGTERM-style drain with a cache flush).
//
// Concurrency assertions here are interleaving-independent: the coalescing
// stress pins `misses == 1` and `hits + coalesced == N - 1` (which split
// depends on scheduling) and bit-identity against fresh solo solves, never
// "coalesced > 0".
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/canonical.h"
#include "cache/inflight.h"
#include "cache/solve_cache.h"
#include "core/solver.h"
#include "obs/counters.h"
#include "obs/reqlog.h"
#include "obs/window.h"
#include "service/broker.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"

namespace encodesat {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServiceJson, ParsesScalarsAndContainers) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"a":1.5,"b":[true,false,null],"s":"x"})", &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  ASSERT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_TRUE(v.find("b")->array[0].boolean);
  EXPECT_TRUE(v.find("b")->array[2].is_null());
  EXPECT_EQ(v.find("s")->str, "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServiceJson, DecodesEscapesAndSurrogatePairs) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"("a\n\t\"\\\u0041\u00e9\ud83d\ude00")", &v));
  EXPECT_EQ(v.str, "a\n\t\"\\A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(ServiceJson, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("", &v, &err));
  EXPECT_FALSE(json_parse("{\"a\":}", &v, &err));
  EXPECT_FALSE(json_parse("{\"a\":1} extra", &v, &err));
  EXPECT_FALSE(json_parse("\"unterminated", &v, &err));
  EXPECT_FALSE(json_parse("\"\\ud800\"", &v, &err));  // unpaired surrogate
  std::string deep(200, '[');
  EXPECT_FALSE(json_parse(deep, &v, &err));
  EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(ServiceJson, EscapeRoundTripsThroughParser) {
  const std::string raw = "line1\nline2\t\"quoted\" \\ \x01";
  JsonValue v;
  ASSERT_TRUE(json_parse("\"" + json_escape(raw) + "\"", &v));
  EXPECT_EQ(v.str, raw);
}

// ------------------------------------------------------------ protocol --

TEST(ServiceProtocol, ParsesSolveRequestWithOptions) {
  WireRequest req;
  std::string err;
  ASSERT_TRUE(parse_request(
      R"({"id":"r1","constraints":"face a b\n","deadline_s":2.5,)"
      R"("options":{"pipeline":"exact","max_work":100,"threads":2}})",
      &req, &err))
      << err;
  EXPECT_EQ(req.op, WireRequest::Op::kSolve);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.constraints, "face a b\n");
  EXPECT_DOUBLE_EQ(req.deadline_seconds, 2.5);
  EXPECT_EQ(req.pipeline, "exact");
  EXPECT_EQ(req.max_work, 100u);
  EXPECT_EQ(req.threads, 2);

  SolveOptions opts;
  ASSERT_TRUE(apply_wire_options(req, &opts));
  EXPECT_EQ(opts.pipeline, SolveOptions::Pipeline::kExact);
  EXPECT_EQ(opts.exec.max_work, 100u);
  EXPECT_EQ(opts.exec.threads, 2);
}

TEST(ServiceProtocol, ParsesStatsOpAndRejectsBadRequests) {
  WireRequest req;
  std::string err;
  ASSERT_TRUE(parse_request(R"({"id":"s","op":"stats"})", &req, &err));
  EXPECT_EQ(req.op, WireRequest::Op::kStats);

  EXPECT_FALSE(parse_request("[1,2]", &req, &err));
  EXPECT_FALSE(parse_request(R"({"id":7,"constraints":"x"})", &req, &err));
  EXPECT_FALSE(parse_request(R"({"id":"a","op":"frobnicate"})", &req, &err));
  EXPECT_FALSE(parse_request(R"({"id":"a"})", &req, &err))
      << "solve without constraints";
  EXPECT_EQ(req.id, "a") << "id recovered for the error response";
  EXPECT_FALSE(parse_request(
      R"({"id":"a","constraints":"x","deadline_s":-1})", &req, &err));

  WireRequest bad;
  bad.pipeline = "warp";
  SolveOptions opts;
  EXPECT_FALSE(apply_wire_options(bad, &opts));
}

TEST(ServiceProtocol, RejectsOutOfRangeNumericFields) {
  // Casting an out-of-range double to int/uint64 is UB, and a huge
  // deadline overflows steady_clock duration math — all three numeric
  // wire fields must bounce at parse time, before any cast.
  WireRequest req;
  std::string err;
  EXPECT_FALSE(parse_request(
      R"({"id":"a","constraints":"x","options":{"threads":1e18}})", &req,
      &err));
  EXPECT_NE(err.find("threads"), std::string::npos) << err;
  EXPECT_FALSE(parse_request(
      R"({"id":"a","constraints":"x","options":{"max_work":1e20}})", &req,
      &err));
  EXPECT_FALSE(parse_request(
      R"({"id":"a","constraints":"x","deadline_s":1e12})", &req, &err));
  // In-range values (including the documented maxima) still parse.
  ASSERT_TRUE(parse_request(
      R"({"id":"a","constraints":"x","deadline_s":1e9,)"
      R"("options":{"threads":4096,"max_work":1e18}})",
      &req, &err))
      << err;
  EXPECT_EQ(req.threads, 4096);
  EXPECT_EQ(req.max_work, 1000000000000000000u);
}

TEST(ServiceProtocol, RendersEveryStatusShape) {
  ConstraintSet cs = parse_constraints("face a b c\ndominance a b\n");
  SolveResponse ok;
  ok.id = "r1";
  ok.result = Solver(cs).encode({});
  ok.status = status_from_result(ok.result);
  const std::string line = render_response(ok, &cs.symbols());
  EXPECT_NE(line.find("\"id\":\"r1\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"codes\":{\"a\":\""), std::string::npos);

  SolveResponse parse_err;
  parse_err.id = "p";
  parse_err.status = StatusCode::kParseError;
  parse_err.parse_error = ParseError{3, 7, "bad token"};
  EXPECT_EQ(render_response(parse_err, nullptr),
            R"({"id":"p","status":"parse_error",)"
            R"("error":{"message":"bad token","line":3,"col":7}})");

  SolveResponse timeout;
  timeout.id = "t";
  timeout.status = StatusCode::kTimeout;
  timeout.result.truncation = Truncation::kDeadline;
  EXPECT_EQ(render_response(timeout, nullptr),
            R"({"id":"t","status":"timeout","truncation":"deadline"})");

  EXPECT_EQ(render_error_response("o", StatusCode::kOverloaded, "queue full"),
            R"({"id":"o","status":"overloaded",)"
            R"("error":{"message":"queue full"}})");
}

TEST(ServiceProtocol, StatusCodeNamesRoundTrip) {
  for (const StatusCode c :
       {StatusCode::kOk, StatusCode::kParseError, StatusCode::kInfeasible,
        StatusCode::kTimeout, StatusCode::kOverloaded, StatusCode::kCanceled,
        StatusCode::kInternal}) {
    StatusCode back = StatusCode::kOk;
    ASSERT_TRUE(status_code_from_name(status_code_name(c), &back));
    EXPECT_EQ(back, c);
  }
  StatusCode out;
  EXPECT_FALSE(status_code_from_name("bogus", &out));
}

// -------------------------------------------------- coalescing (facade) --

ConstraintSet stress_instance() {
  // The paper's Figure 8 instance (examples/data/mixed.constraints):
  // encodable in 2 bits. Only 4 symbols, so with 8 threads rotations
  // repeat — duplicate requests are exactly what the single-flight path
  // must also serve correctly.
  return parse_constraints(
      "face s0 s1\n"
      "dominance s0 s1\n"
      "dominance s1 s2\n"
      "disjunctive s0 s1 s3\n");
}

TEST(ServiceCoalescing, NThreadsSameInstanceOneMissBitIdentical) {
  const ConstraintSet base = stress_instance();
  const std::uint32_t n = base.num_symbols();
  constexpr int kThreads = 8;

  // Rotation r: symbol i -> (i + r) mod n. Same canonical instance, so
  // all requests share one cache key; each response must come back in its
  // own symbol order.
  std::vector<ConstraintSet> instances;
  std::vector<SolveResult> fresh;
  for (int r = 0; r < kThreads; ++r) {
    std::vector<std::uint32_t> rot(n);
    for (std::uint32_t i = 0; i < n; ++i)
      rot[i] = (i + static_cast<std::uint32_t>(r)) % n;
    instances.push_back(apply_symbol_permutation(base, rot));
    // Baseline: a solo single-threaded solve of the same request down the
    // same canonicalizing (cache-enabled) path, with a private cold cache
    // — exactly what the request would get with no concurrency around.
    SolveCache solo;
    SolveOptions solo_opts;
    solo_opts.cache.store = &solo;
    fresh.push_back(Solver(instances.back()).encode(solo_opts));
    ASSERT_TRUE(fresh.back().encoded());
  }

  SolveCache cache;
  InFlightTable table;
  MetricsRegistry metrics;
  std::vector<SolveResult> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kThreads; ++r)
    threads.emplace_back([&, r] {
      // Crude start barrier to maximize in-flight overlap; the assertions
      // below hold for any interleaving.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      SolveOptions opts;
      opts.cache.store = &cache;
      opts.cache.single_flight = &table;
      opts.exec.metrics = &metrics;
      got[r] = Solver(instances[r]).encode(opts);
    });
  for (std::thread& t : threads) t.join();

  const CacheStats cs = cache.stats();
  const CoalesceStats ts = table.stats();
  EXPECT_EQ(cs.misses, 1u) << "exactly one request pays the solve";
  EXPECT_EQ(ts.leaders, 1u);
  EXPECT_EQ(cs.hits + ts.coalesced, static_cast<std::uint64_t>(kThreads - 1));
  // The metric-level accounting is exact: every solve lands in exactly
  // one of the four buckets, under any interleaving.
  const std::uint64_t bucketed =
      metrics.counter("cache.hits", false)->value() +
      metrics.counter("cache.misses", false)->value() +
      metrics.counter("cache.coalesced", false)->value() +
      metrics.counter("cache.wait_expired", false)->value();
  EXPECT_EQ(bucketed, static_cast<std::uint64_t>(kThreads));

  for (int r = 0; r < kThreads; ++r) {
    EXPECT_EQ(got[r].encoding.bits, fresh[r].encoding.bits);
    EXPECT_EQ(got[r].encoding.codes, fresh[r].encoding.codes)
        << "rotation " << r << " must be bit-identical to its solo solve";
    EXPECT_EQ(got[r].minimal, fresh[r].minimal);
  }
  // Exactly one request did the solve fresh; the rest were served.
  int served = 0;
  for (const SolveResult& r : got) served += (r.from_cache || r.coalesced);
  EXPECT_EQ(served, kThreads - 1);
}

TEST(ServiceCoalescing, TruncatedLeaderNeverPublishesToFollowers) {
  // A leader whose own budget truncates its result must abandon, not
  // publish: a coalesced response is contractually bit-identical to a
  // fresh solo solve of that request, and followers may hold bigger
  // budgets (deadlines are excluded from the coalescing key). Every
  // request here truncates deterministically (max_work=1), so whatever
  // the interleaving — leader, follower-fallback, or no overlap at all —
  // each response must equal its own solo solve, nothing may land in the
  // cache, and every solve must count as a miss (a fallback re-runs the
  // pipeline itself).
  const ConstraintSet base = stress_instance();
  constexpr int kThreads = 4;

  SolveOptions truncating;
  truncating.exec.max_work = 1;  // deterministic work-budget truncation

  std::vector<SolveResult> fresh;
  for (int r = 0; r < kThreads; ++r) {
    SolveCache solo;
    SolveOptions solo_opts = truncating;
    solo_opts.cache.store = &solo;
    fresh.push_back(Solver(base).encode(solo_opts));
    EXPECT_TRUE(fresh.back().truncated);
    EXPECT_EQ(solo.stats().entries, 0u) << "truncated results never cached";
  }

  SolveCache cache;
  InFlightTable table;
  MetricsRegistry metrics;
  std::vector<SolveResult> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kThreads; ++r)
    threads.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      SolveOptions opts = truncating;
      opts.cache.store = &cache;
      opts.cache.single_flight = &table;
      opts.exec.metrics = &metrics;
      got[r] = Solver(base).encode(opts);
    });
  for (std::thread& t : threads) t.join();

  for (int r = 0; r < kThreads; ++r) {
    EXPECT_FALSE(got[r].coalesced)
        << "a truncated result must never be served coalesced";
    EXPECT_FALSE(got[r].from_cache);
    EXPECT_EQ(got[r].status, fresh[r].status);
    EXPECT_EQ(got[r].truncation, fresh[r].truncation);
    EXPECT_EQ(got[r].encoding.codes, fresh[r].encoding.codes)
        << "request " << r << " must match its solo solve";
  }
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(metrics.counter("cache.misses", false)->value(),
            static_cast<std::uint64_t>(kThreads))
      << "leaders and abandon-fallbacks all ran the pipeline";
  EXPECT_EQ(metrics.counter("cache.hits", false)->value(), 0u);
  EXPECT_EQ(metrics.counter("cache.coalesced", false)->value(), 0u);
}

TEST(ServiceCoalescing, SingleFlightWorksWithoutCache) {
  // BrokerConfig documents "null [cache] runs uncached (coalescing still
  // applies)": with only a single-flight table wired, the solve must
  // still resolve on the table — and return the same bits as the
  // cache-enabled path (both solve the canonical instance and permute
  // back).
  const ConstraintSet base = stress_instance();
  SolveCache solo;
  SolveOptions cached_opts;
  cached_opts.cache.store = &solo;
  const SolveResult reference = Solver(base).encode(cached_opts);
  ASSERT_TRUE(reference.encoded());

  InFlightTable table;
  SolveOptions opts;
  opts.cache.single_flight = &table;  // no cache anywhere
  const SolveResult got = Solver(base).encode(opts);
  ASSERT_TRUE(got.encoded());
  EXPECT_EQ(got.encoding.codes, reference.encoding.codes);
  const CoalesceStats ts = table.stats();
  EXPECT_EQ(ts.leaders, 1u) << "the uncached solve joined the table";
  EXPECT_EQ(ts.in_flight, 0u) << "and published (released its slot)";
}

// --------------------------------------------------------------- broker --

// A latch-controlled gate: solve_fn lambdas built on it block each call
// until release(), letting the tests park a worker deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void release() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  void wait_open() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
  void wait_entered(int count) {
    while (entered.load() < count) std::this_thread::yield();
  }
};

struct Collected {
  std::mutex mu;
  std::vector<SolveResponse> responses;

  Broker::Callback collector() {
    return [this](SolveResponse resp) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(resp));
    };
  }
  const SolveResponse* find(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu);
    for (const SolveResponse& r : responses)
      if (r.id == id) return &r;
    return nullptr;
  }
};

SolveRequest named_request(const std::string& id) {
  SolveRequest req;
  req.id = id;
  return req;
}

TEST(ServiceBroker, AdmissionControlRejectsInlineWhenQueueFull) {
  Gate gate;
  MetricsRegistry metrics;
  BrokerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 1;
  cfg.metrics = &metrics;
  cfg.solve_fn = [&](const SolveRequest& req) {
    gate.entered.fetch_add(1);
    gate.wait_open();
    SolveResponse resp;
    resp.id = req.id;
    resp.status = StatusCode::kOk;
    return resp;
  };
  Broker broker(cfg);
  Collected out;

  EXPECT_TRUE(broker.submit(named_request("inflight"), out.collector()));
  gate.wait_entered(1);  // worker parked inside the solve
  EXPECT_TRUE(broker.submit(named_request("queued"), out.collector()));
  EXPECT_FALSE(broker.submit(named_request("rejected"), out.collector()))
      << "queue holds max_queue=1, third submit must bounce";
  const SolveResponse* rej = out.find("rejected");
  ASSERT_NE(rej, nullptr) << "rejection callback fires inline";
  EXPECT_EQ(rej->status, StatusCode::kOverloaded);
  EXPECT_EQ(rej->detail, "queue full");

  gate.release();
  broker.drain(DrainMode::kFinishQueued);
  EXPECT_EQ(out.find("inflight")->status, StatusCode::kOk);
  EXPECT_EQ(out.find("queued")->status, StatusCode::kOk);
  EXPECT_EQ(metrics.counter("service.accepted", false)->value(), 2u);
  EXPECT_EQ(metrics.counter("service.rejected_overload", false)->value(), 1u);
  EXPECT_FALSE(broker.submit(named_request("late"), out.collector()))
      << "post-drain submits are rejected";
}

TEST(ServiceBroker, DeadlineExpiresWhileQueued) {
  Gate gate;
  MetricsRegistry metrics;
  std::atomic<int> victim_solved{0};
  BrokerConfig cfg;
  cfg.workers = 1;
  cfg.metrics = &metrics;
  cfg.solve_fn = [&](const SolveRequest& req) {
    if (req.id == "victim") victim_solved.fetch_add(1);
    gate.entered.fetch_add(1);
    gate.wait_open();
    SolveResponse resp;
    resp.id = req.id;
    resp.status = StatusCode::kOk;
    return resp;
  };
  Broker broker(cfg);
  Collected out;

  EXPECT_TRUE(broker.submit(named_request("blocker"), out.collector()));
  gate.wait_entered(1);
  SolveRequest victim = named_request("victim");
  victim.options.exec.timeout_seconds = 0.02;  // expires while the blocker
                                               // holds the only worker
  EXPECT_TRUE(broker.submit(std::move(victim), out.collector()));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.release();
  broker.drain(DrainMode::kFinishQueued);

  const SolveResponse* v = out.find("victim");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->status, StatusCode::kTimeout);
  EXPECT_EQ(v->result.truncation, Truncation::kDeadline);
  EXPECT_EQ(victim_solved.load(), 0) << "expired requests never solve";
  EXPECT_EQ(out.find("blocker")->status, StatusCode::kOk);
  EXPECT_GE(metrics.counter("service.deadline_expired", false)->value(), 1u);
}

TEST(ServiceBroker, SigtermStyleDrainFinishesInFlightRejectsQueued) {
  Gate gate;
  MetricsRegistry metrics;
  BrokerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 0;  // probes below must only ever bounce off the drain
  cfg.metrics = &metrics;
  cfg.solve_fn = [&](const SolveRequest& req) {
    gate.entered.fetch_add(1);
    gate.wait_open();
    SolveResponse resp;
    resp.id = req.id;
    resp.status = StatusCode::kOk;
    return resp;
  };
  Broker broker(cfg);
  Collected out;

  EXPECT_TRUE(broker.submit(named_request("inflight"), out.collector()));
  gate.wait_entered(1);
  EXPECT_TRUE(broker.submit(named_request("queued"), out.collector()));

  std::thread drainer([&] { broker.drain(DrainMode::kRejectQueued); });
  // Hold the in-flight solve until the drain has provably closed admission
  // (a probe submit bounces); otherwise the freed worker could dequeue
  // "queued" before the drain flag is set. Probes accepted before that
  // land in the queue and are drained like "queued".
  Collected probes;
  while (broker.submit(named_request("probe"), probes.collector()))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.release();
  drainer.join();

  EXPECT_EQ(out.find("inflight")->status, StatusCode::kOk);
  const SolveResponse* q = out.find("queued");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->status, StatusCode::kOverloaded);
  EXPECT_EQ(q->detail, "server draining");
  // "queued" plus any accepted probes; at least the one real request.
  EXPECT_GE(metrics.counter("service.drained", false)->value(), 1u);
}

// --------------------------------------------------------- pipe server --

struct PipePair {
  int fds[2] = {-1, -1};
  PipePair() { EXPECT_EQ(::pipe(fds), 0); }
  ~PipePair() {
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);
  }
  int read_end() const { return fds[0]; }
  int write_end() const { return fds[1]; }
  void close_write() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

void write_str(int fd, const std::string& s) {
  ASSERT_EQ(::write(fd, s.data(), s.size()),
            static_cast<ssize_t>(s.size()));
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

TEST(ServiceServer, PipeModeAnswersInOrderAndDrainsOnEof) {
  PipePair req_pipe, resp_pipe;
  MetricsRegistry metrics;
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 4;
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  Server server(cfg);

  std::thread serving([&] {
    EXPECT_EQ(server.run_pipe(req_pipe.read_end(), resp_pipe.write_end()), 0);
    ::close(resp_pipe.fds[1]);
    resp_pipe.fds[1] = -1;
  });
  write_str(req_pipe.write_end(),
            "{\"id\":\"r1\",\"constraints\":\"face a b c\\ndominance a b\"}\n"
            "\n"  // blank lines are skipped
            "{\"id\":\"r2\",\"constraints\":\"dominance a\"}\n"
            "{\"id\":\"r3\",\"constraints\":\"face a b c\\ndominance a b\"}\n"
            "{\"id\":\"r4\",\"constraints\":\"face x y\\nface y z\\n"
            "dominance x z\"}");  // no trailing newline: still a request
  req_pipe.close_write();
  const std::string out = read_all(resp_pipe.read_end());
  serving.join();

  std::vector<std::string> lines;
  for (std::size_t start = 0; start < out.size();) {
    const std::size_t nl = out.find('\n', start);
    lines.push_back(out.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  ASSERT_EQ(lines.size(), 4u) << out;
  EXPECT_NE(lines[0].find("\"id\":\"r1\",\"status\":\"ok\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"r2\",\"status\":\"parse_error\""),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"line\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"r3\",\"status\":\"ok\""),
            std::string::npos);
  EXPECT_NE(lines[3].find("\"id\":\"r4\",\"status\":\"ok\""),
            std::string::npos);
  // r1 and r3 are the same instance: the shared cache (or single-flight
  // coalescing, depending on timing) must serve one of them.
  const CacheStats cs = cache.stats();
  const CoalesceStats ts = server.broker().single_flight().stats();
  EXPECT_EQ(cs.misses + ts.coalesced + cs.hits, 3u);
  EXPECT_EQ(cs.misses, 2u) << "r1/r3 share a key; r4 is distinct";
  // Identical requests must render byte-identically regardless of which
  // was coalesced/cached.
  EXPECT_EQ(lines[0].substr(lines[0].find("\"status\"")),
            lines[2].substr(lines[2].find("\"status\"")));
}

TEST(ServiceServer, SigtermDrainsInFlightCompletesQueuedRejectedCacheFlushed) {
  PipePair req_pipe, resp_pipe;
  Gate gate;
  MetricsRegistry metrics;
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.max_queue = 0;  // unbounded: probes below must never see
                             // "queue full", only "server draining"
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  // Gate the real solve: the test controls exactly when the in-flight
  // request finishes, and the solve still populates the shared cache.
  cfg.broker.solve_fn = [&](const SolveRequest& req) {
    gate.entered.fetch_add(1);
    gate.wait_open();
    return solve(req);
  };
  Server server(cfg);
  ScopedDrainSignals signals(&server);

  std::thread serving([&] {
    EXPECT_EQ(server.run_pipe(req_pipe.read_end(), resp_pipe.write_end()), 0);
    ::close(resp_pipe.fds[1]);
    resp_pipe.fds[1] = -1;
  });
  write_str(req_pipe.write_end(),
            "{\"id\":\"inflight\",\"constraints\":"
            "\"face a b c\\ndominance a b\"}\n"
            "{\"id\":\"queued\",\"constraints\":\"face x y\"}\n");
  gate.wait_entered(1);  // first request is on the worker; both lines were
                         // one atomic pipe write, so "queued" is submitted
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  // The signal path (handler -> self-pipe -> poll -> drain) is
  // asynchronous; hold the in-flight solve until admission has provably
  // closed, so "queued" cannot sneak onto the freed worker. Probes
  // accepted before that land in the queue and are drained like "queued".
  Collected probes;
  while (server.broker().submit(named_request("probe"), probes.collector()))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.release();
  const std::string out = read_all(resp_pipe.read_end());
  serving.join();

  EXPECT_NE(out.find("\"id\":\"inflight\",\"status\":\"ok\""),
            std::string::npos)
      << "in-flight request completes during drain: " << out;
  EXPECT_NE(out.find("\"id\":\"queued\",\"status\":\"overloaded\""),
            std::string::npos)
      << "queued request is rejected by the drain: " << out;
  // "queued" plus any accepted probes; at least the one real request.
  EXPECT_GE(metrics.counter("service.drained", false)->value(), 1u);

  // After run_pipe returned the broker is quiescent: the cache flush the
  // CLI does with --cache-save sees the in-flight solve's entry.
  const std::string path =
      (std::filesystem::temp_directory_path() / "service_drain_cache.txt")
          .string();
  std::string err;
  ASSERT_TRUE(cache.save(path, &err)) << err;
  SolveCache reloaded;
  ASSERT_TRUE(reloaded.load(path, &err)) << err;
  EXPECT_EQ(reloaded.stats().entries, 1u);
  std::remove(path.c_str());
}

TEST(ServiceServer, PipeModeSigtermAfterEofRejectsQueued) {
  // SIGTERM drains kRejectQueued in pipe mode after EOF too: the request
  // on the worker finishes, the queued one is answered `overloaded`
  // instead of being run first.
  PipePair req_pipe, resp_pipe;
  Gate gate;
  MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.max_queue = 0;  // unbounded: probes only see "server draining"
  cfg.broker.metrics = &metrics;
  cfg.broker.solve_fn = [&](const SolveRequest& req) {
    gate.entered.fetch_add(1);
    gate.wait_open();
    return solve(req);
  };
  Server server(cfg);
  ScopedDrainSignals signals(&server);

  std::thread serving([&] {
    EXPECT_EQ(server.run_pipe(req_pipe.read_end(), resp_pipe.write_end()), 0);
    ::close(resp_pipe.fds[1]);
    resp_pipe.fds[1] = -1;
  });
  write_str(req_pipe.write_end(),
            "{\"id\":\"inflight\",\"constraints\":"
            "\"face a b c\\ndominance a b\"}\n"
            "{\"id\":\"queued\",\"constraints\":\"face x y\"}\n");
  gate.wait_entered(1);  // "inflight" is on the worker, "queued" submitted
  req_pipe.close_write();
  // Let the server read the EOF before the signal lands: that order is
  // the one under test (either order must reject "queued").
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  // Hold the in-flight solve until admission has provably closed, so
  // "queued" cannot sneak onto the freed worker.
  Collected probes;
  while (server.broker().submit(named_request("probe"), probes.collector()))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.release();
  const std::string out = read_all(resp_pipe.read_end());
  serving.join();

  EXPECT_NE(out.find("\"id\":\"inflight\",\"status\":\"ok\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"id\":\"queued\",\"status\":\"overloaded\""),
            std::string::npos)
      << "SIGTERM after EOF rejects what is still queued: " << out;
  EXPECT_GE(metrics.counter("service.drained", false)->value(), 1u);
}

TEST(ServiceServer, StalledClientDoesNotWedgeWorkersOrDrain) {
  // A client that stops reading (full pipe buffer) must not block a
  // broker worker forever inside a response write — that worker would
  // never be joined and drain would hang. With a write stall budget the
  // session goes dead, output is discarded, and run_pipe still returns.
  PipePair req_pipe, resp_pipe;
#ifdef F_SETPIPE_SZ
  // Shrink the response pipe to one page so a handful of responses fill
  // it; without the fcntl the default 64 KiB buffer would need far more.
  if (::fcntl(resp_pipe.write_end(), F_SETPIPE_SZ, 4096) < 0)
    GTEST_SKIP() << "cannot shrink pipe buffer";
#else
  GTEST_SKIP() << "F_SETPIPE_SZ unavailable";
#endif
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 2;
  cfg.broker.cache = &cache;
  cfg.write_timeout_ms = 50;
  Server server(cfg);

  std::thread serving([&] {
    EXPECT_EQ(server.run_pipe(req_pipe.read_end(), resp_pipe.write_end()), 0);
  });
  // ~120 responses at ~100 bytes each overflow the 4 KiB pipe many times
  // over while the test deliberately never reads the other end.
  std::string requests;
  for (int i = 0; i < 120; ++i)
    requests += "{\"id\":\"r" + std::to_string(i) +
                "\",\"constraints\":\"face a b c\\ndominance a b\"}\n";
  write_str(req_pipe.write_end(), requests);
  req_pipe.close_write();  // EOF: everything read is still answered
  // The only assertion that matters: the server comes back at all (the
  // test would time out if a worker wedged on the stalled write).
  serving.join();
}

// ----------------------------------------------------- telemetry ops ----

// Reads one newline-terminated response from the pipe (the server flushes
// per line, so byte-at-a-time is fine for a test).
std::string read_line(int fd) {
  std::string out;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    out.push_back(c);
  }
  return out;
}

TEST(ServiceServer, MetricsHealthAndStatsOpsExposeLiveTelemetry) {
  PipePair req_pipe, resp_pipe;
  MetricsRegistry metrics;
  SolveCache cache;
  RollingWindow window;
  ServerConfig cfg;
  cfg.broker.workers = 2;
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  cfg.broker.window = &window;
  Server server(cfg);

  std::thread serving([&] {
    EXPECT_EQ(server.run_pipe(req_pipe.read_end(), resp_pipe.write_end()), 0);
    ::close(resp_pipe.fds[1]);
    resp_pipe.fds[1] = -1;
  });
  // Complete one solve before scraping: the broker observes its latency
  // histograms before delivering the response, so reading the response
  // guarantees the scrape sees count >= 1.
  write_str(req_pipe.write_end(),
            "{\"id\":\"r1\",\"constraints\":\"face a b c\\ndominance a b\"}\n");
  const std::string solve_line = read_line(resp_pipe.read_end());
  ASSERT_NE(solve_line.find("\"id\":\"r1\",\"status\":\"ok\""),
            std::string::npos)
      << solve_line;
  write_str(req_pipe.write_end(),
            "{\"id\":\"m1\",\"op\":\"metrics\"}\n"
            "{\"id\":\"s1\",\"op\":\"stats\"}\n"
            "{\"id\":\"h1\",\"op\":\"health\"}\n");
  req_pipe.close_write();
  const std::string rest = read_all(resp_pipe.read_end());
  serving.join();

  std::vector<std::string> lines;
  for (std::size_t start = 0; start < rest.size();) {
    const std::size_t nl = rest.find('\n', start);
    lines.push_back(rest.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  ASSERT_EQ(lines.size(), 3u) << rest;

  // metrics: Prometheus exposition embedded as a JSON string. The solve's
  // latency histogram has exactly one observation, and the +Inf bucket of
  // a cumulative series always equals _count.
  const std::string& m = lines[0];
  EXPECT_NE(m.find("\"id\":\"m1\",\"status\":\"ok\",\"metrics\":\""),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("# TYPE encodesat_service_latency_total histogram"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("encodesat_service_latency_total_count 1"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("encodesat_service_latency_total_bucket{le="),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("encodesat_service_queue_depth 0"), std::string::npos)
      << m;
  EXPECT_NE(m.find("encodesat_service_window_1m_rate"), std::string::npos)
      << m;

  // stats: the v2 telemetry JSON with the same live gauges (the staleness
  // fix — both scrape ops are built from one view).
  const std::string& s = lines[1];
  EXPECT_NE(s.find("\"id\":\"s1\",\"status\":\"ok\""), std::string::npos) << s;
  EXPECT_NE(s.find("encodesat-telemetry-v2"), std::string::npos) << s;
  EXPECT_NE(s.find("\"service.queue_depth\":0"), std::string::npos) << s;
  EXPECT_NE(s.find("\"service.in_flight\":0"), std::string::npos) << s;
  EXPECT_NE(s.find("\"service.window.1m.rate\":"), std::string::npos) << s;
  EXPECT_NE(s.find("\"service.latency.total\":{\"count\":1"),
            std::string::npos)
      << s;

  // health: serving state with live worker counts.
  const std::string& h = lines[2];
  EXPECT_NE(h.find("\"id\":\"h1\",\"status\":\"ok\",\"health\":{"
                   "\"state\":\"serving\""),
            std::string::npos)
      << h;
  EXPECT_NE(h.find("\"queue_depth\":0"), std::string::npos) << h;
  EXPECT_NE(h.find("\"workers\":2"), std::string::npos) << h;
  EXPECT_NE(h.find("\"workers_alive\":2"), std::string::npos) << h;
  EXPECT_NE(h.find("\"uptime_us\":"), std::string::npos) << h;

  // The window recorded the solve.
  EXPECT_EQ(window.stats(server.broker().now_us(), 0).count, 1u);
}

TEST(ServiceProtocol, ParsesMetricsAndHealthOps) {
  WireRequest wire;
  std::string err;
  ASSERT_TRUE(parse_request("{\"id\":\"m\",\"op\":\"metrics\"}", &wire, &err))
      << err;
  EXPECT_EQ(wire.op, WireRequest::Op::kMetrics);
  ASSERT_TRUE(parse_request("{\"id\":\"h\",\"op\":\"health\"}", &wire, &err))
      << err;
  EXPECT_EQ(wire.op, WireRequest::Op::kHealth);
}

TEST(ServiceBroker, RequestLogRecordsDispositionsAndLatencies) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "broker_reqlog_test.ndjson")
          .string();
  std::remove(path.c_str());
  {
    ReqLogConfig lcfg;
    lcfg.path = path;
    RequestLog reqlog(lcfg);
    ASSERT_TRUE(reqlog.ok()) << reqlog.open_error();
    MetricsRegistry metrics;
    BrokerConfig cfg;
    cfg.workers = 1;
    cfg.metrics = &metrics;
    cfg.reqlog = &reqlog;
    cfg.solve_fn = [](const SolveRequest& req) {
      SolveResponse resp;
      resp.id = req.id;
      resp.status = StatusCode::kOk;
      return resp;
    };
    Broker broker(cfg);
    Collected out;
    EXPECT_TRUE(broker.submit(named_request("a"), out.collector()));
    EXPECT_TRUE(broker.submit(named_request("b"), out.collector()));
    broker.drain(DrainMode::kFinishQueued);
    EXPECT_EQ(reqlog.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  int solve_lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"schema\":\"encodesat-reqlog-v1\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"disposition\":\"solve\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"total_us\":"), std::string::npos) << line;
    ++solve_lines;
  }
  EXPECT_EQ(solve_lines, 2);
  std::remove(path.c_str());
}

// ------------------------------------------------ socket transports ----

std::string temp_socket_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The server binds on another thread; retry until its listener is up.
int connect_unix_retry(const std::string& path) {
  for (int i = 0; i < 5000; ++i) {
    const int fd = connect_unix(path);
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Waits for run_tcp (on another thread) to publish its ephemeral port.
int wait_bound_port(const Server& server) {
  for (int i = 0; i < 5000 && server.bound_port() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return server.bound_port();
}

void wait_no_connections(const Server& server) {
  for (int i = 0; i < 5000 && server.live_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

int count_open_fds() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

constexpr const char kSolveLine[] =
    "{\"id\":\"r\",\"constraints\":\"face a b c\\ndominance a b\"}\n";

/// Sends two requests, the last without a trailing newline, then shuts
/// down the write side: both are answered in order, and the server closes
/// the connection once they are written.
void expect_final_line_answered(int fd) {
  write_str(fd,
            "{\"id\":\"r1\",\"constraints\":\"face a b c\\ndominance a b\"}\n"
            "{\"id\":\"r2\",\"constraints\":\"face x y\"}");
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string out = read_all(fd);
  ::close(fd);
  const std::size_t nl = out.find('\n');
  ASSERT_NE(nl, std::string::npos) << out;
  EXPECT_EQ(out.find("{\"id\":\"r1\",\"status\":\"ok\""), 0u) << out;
  EXPECT_EQ(out.find("{\"id\":\"r2\",\"status\":\"ok\""), nl + 1) << out;
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2) << out;
}

TEST(ServiceServer, UnixChurnReapsEagerlyAndFdsReturnToBaseline) {
  // The regression this PR fixes: the old transport kept every
  // {fd, session, thread} triple until teardown, so connect/disconnect
  // churn grew resources without bound. Now a reap follows each
  // disconnect: after N churn cycles the process fd count is back at
  // the post-first-cycle baseline and accepted == reaped.
  const std::string path = temp_socket_path("encodesat_churn.sock");
  std::remove(path.c_str());
  MetricsRegistry metrics;
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 2;
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_unix_socket(path), 0); });

  const auto cycle = [&] {
    const int fd = connect_unix_retry(path);
    ASSERT_GE(fd, 0);
    write_str(fd, kSolveLine);
    const std::string resp = read_line(fd);
    EXPECT_NE(resp.find("\"status\":\"ok\""), std::string::npos) << resp;
    ::close(fd);
  };
  // Baseline after one full cycle (listener up, cache warm, conn reaped).
  cycle();
  wait_no_connections(server);
  ASSERT_EQ(server.live_connections(), 0);
  const int fd_baseline = count_open_fds();

  constexpr int kCycles = 200;
  for (int i = 0; i < kCycles; ++i) cycle();
  wait_no_connections(server);
  EXPECT_EQ(server.live_connections(), 0);
  EXPECT_EQ(count_open_fds(), fd_baseline)
      << "connection churn leaked file descriptors";
  EXPECT_EQ(metrics.counter("service.conn.accepted", false)->value(),
            static_cast<std::uint64_t>(kCycles) + 1);
  EXPECT_EQ(metrics.counter("service.conn.reaped", false)->value(),
            static_cast<std::uint64_t>(kCycles) + 1);

  server.request_drain();
  serving.join();
  EXPECT_EQ(metrics.counter("service.conn.reaped", false)->value(),
            metrics.counter("service.conn.accepted", false)->value());
}

TEST(ServiceServer, OversizedSocketLineAnswersParseErrorAndCloses) {
  const std::string path = temp_socket_path("encodesat_oversize.sock");
  std::remove(path.c_str());
  MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.metrics = &metrics;
  cfg.max_line_bytes = 64;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_unix_socket(path), 0); });

  const int fd = connect_unix_retry(path);
  ASSERT_GE(fd, 0);
  // 200 bytes, no newline in sight: past the cap the server must not
  // buffer on — one parse_error line, then the connection closes.
  write_str(fd, std::string(200, 'x'));
  const std::string resp = read_line(fd);
  EXPECT_NE(resp.find("\"status\":\"parse_error\""), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("request line exceeds 64 bytes"), std::string::npos)
      << resp;
  EXPECT_EQ(read_all(fd), "") << "connection must close after the error";
  ::close(fd);
  wait_no_connections(server);
  EXPECT_EQ(metrics.counter("service.conn.oversized_line", false)->value(),
            1u);

  server.request_drain();
  serving.join();
}

TEST(ServiceServer, SocketAnswersFinalLineWithoutNewline) {
  const std::string path = temp_socket_path("encodesat_final_line.sock");
  std::remove(path.c_str());
  ServerConfig cfg;
  cfg.broker.workers = 2;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_unix_socket(path), 0); });
  const int fd = connect_unix_retry(path);
  ASSERT_GE(fd, 0);
  expect_final_line_answered(fd);
  server.request_drain();
  serving.join();
}

TEST(ServiceServer, PipeModeOversizedLineEndsSessionWithParseError) {
  PipePair req_pipe, resp_pipe;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.max_line_bytes = 64;
  Server server(cfg);
  std::thread serving([&] {
    EXPECT_EQ(server.run_pipe(req_pipe.read_end(), resp_pipe.write_end()), 0);
    ::close(resp_pipe.fds[1]);
    resp_pipe.fds[1] = -1;
  });
  write_str(req_pipe.write_end(), std::string(200, 'x') + "\n");
  const std::string out = read_all(resp_pipe.read_end());
  serving.join();
  EXPECT_NE(out.find("\"status\":\"parse_error\""), std::string::npos) << out;
  EXPECT_NE(out.find("request line exceeds 64 bytes"), std::string::npos)
      << out;
  req_pipe.close_write();
}

TEST(ServiceServer, MaxConnsRejectsWithDeterministicBusyLine) {
  const std::string path = temp_socket_path("encodesat_busy.sock");
  std::remove(path.c_str());
  MetricsRegistry metrics;
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  cfg.max_conns = 1;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_unix_socket(path), 0); });

  const int first = connect_unix_retry(path);
  ASSERT_GE(first, 0);
  // A full round trip pins the first connection in the server's table
  // before the second connect, making the rejection deterministic.
  write_str(first, kSolveLine);
  EXPECT_NE(read_line(first).find("\"status\":\"ok\""), std::string::npos);

  const int second = connect_unix(path);
  ASSERT_GE(second, 0);
  const std::string busy = read_line(second);
  EXPECT_EQ(busy,
            "{\"id\":\"\",\"status\":\"overloaded\","
            "\"error\":{\"message\":\"server busy\"}}");
  EXPECT_EQ(read_all(second), "") << "rejected connection must close";
  ::close(second);
  EXPECT_EQ(
      metrics.counter("service.conn.rejected_overload", false)->value(), 1u);

  // The admitted connection still works after the rejection.
  write_str(first, kSolveLine);
  EXPECT_NE(read_line(first).find("\"status\":\"ok\""), std::string::npos);
  ::close(first);
  server.request_drain();
  serving.join();
}

TEST(ServiceServer, IdleTimeoutClosesSilentConnections) {
  const std::string path = temp_socket_path("encodesat_idle.sock");
  std::remove(path.c_str());
  MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.metrics = &metrics;
  cfg.idle_timeout_ms = 50;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_unix_socket(path), 0); });

  const int fd = connect_unix_retry(path);
  ASSERT_GE(fd, 0);
  // Say nothing; the server hangs up (EOF below) once the timeout fires.
  EXPECT_EQ(read_all(fd), "");
  ::close(fd);
  wait_no_connections(server);
  EXPECT_EQ(metrics.counter("service.conn.idle_closed", false)->value(), 1u);
  EXPECT_EQ(server.live_connections(), 0);

  server.request_drain();
  serving.join();
}

TEST(ServiceServer, RefusesLiveSocketReplacesStaleRejectsNonSocket) {
  const std::string path = temp_socket_path("encodesat_probe.sock");
  std::remove(path.c_str());
  ServerConfig cfg;
  cfg.broker.workers = 1;

  // Live: a second server must not steal (unlink) the first one's socket.
  Server first(cfg);
  std::thread serving([&] { EXPECT_EQ(first.run_unix_socket(path), 0); });
  const int probe = connect_unix_retry(path);
  ASSERT_GE(probe, 0);
  {
    Server second(cfg);
    EXPECT_EQ(second.run_unix_socket(path), -1);
    EXPECT_NE(second.last_error().find("in use by a live server"),
              std::string::npos)
        << second.last_error();
  }
  ::close(probe);
  first.request_drain();
  serving.join();

  // Stale: a socket file with no listener behind it is unlinked and
  // replaced. (run_unix_socket unlinks on exit, so fabricate one.)
  {
    const int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(dead, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(dead, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(dead);  // bound but never listening: probe-connect refuses
  }
  Server replacing(cfg);
  std::thread serving2([&] { EXPECT_EQ(replacing.run_unix_socket(path), 0); });
  const int fd = connect_unix_retry(path);
  ASSERT_GE(fd, 0);
  write_str(fd, kSolveLine);
  EXPECT_NE(read_line(fd).find("\"status\":\"ok\""), std::string::npos);
  ::close(fd);
  replacing.request_drain();
  serving2.join();

  // Non-socket: never unlink a path that is not a socket at all.
  const std::string file_path = temp_socket_path("encodesat_probe.txt");
  { std::ofstream(file_path) << "precious\n"; }
  Server refused(cfg);
  EXPECT_EQ(refused.run_unix_socket(file_path), -1);
  EXPECT_NE(refused.last_error().find("refusing to replace non-socket"),
            std::string::npos)
      << refused.last_error();
  std::ifstream still_there(file_path);
  EXPECT_TRUE(still_there.good());
  std::remove(file_path.c_str());
}

// ------------------------------------------------------ TCP transport --

TEST(ServiceTcp, MultiClientPipelinedSolvesAnswerInOrder) {
  MetricsRegistry metrics;
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 4;
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_tcp("127.0.0.1:0"), 0); });
  const int port = wait_bound_port(server);
  ASSERT_GT(port, 0);

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      const int fd = connect_tcp(port);
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      const std::string tag = "c" + std::to_string(c);
      // Two pipelined requests; responses must come back in send order
      // even though the broker completes them on any worker.
      std::string batch;
      for (int r = 0; r < 2; ++r)
        batch += "{\"id\":\"" + tag + "r" + std::to_string(r) +
                 "\",\"constraints\":\"face a b c\\ndominance a b\"}\n";
      ::write(fd, batch.data(), batch.size());
      for (int r = 0; r < 2; ++r) {
        const std::string line = read_line(fd);
        if (line.find("\"id\":\"" + tag + "r" + std::to_string(r) +
                      "\",\"status\":\"ok\"") == std::string::npos)
          failures.fetch_add(1);
      }
      ::close(fd);
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  wait_no_connections(server);
  server.request_drain();
  serving.join();
  EXPECT_EQ(metrics.counter("service.conn.accepted", false)->value(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(metrics.counter("service.conn.reaped", false)->value(),
            static_cast<std::uint64_t>(kClients));
}

TEST(ServiceTcp, AnswersFinalLineWithoutNewline) {
  ServerConfig cfg;
  cfg.broker.workers = 2;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_tcp("127.0.0.1:0"), 0); });
  const int port = wait_bound_port(server);
  ASSERT_GT(port, 0);
  const int fd = connect_tcp(port);
  ASSERT_GE(fd, 0);
  expect_final_line_answered(fd);
  server.request_drain();
  serving.join();
}

TEST(ServiceTcp, MaxConnsRejectionMatchesUnixShape) {
  MetricsRegistry metrics;
  SolveCache cache;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.cache = &cache;
  cfg.broker.metrics = &metrics;
  cfg.max_conns = 1;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_tcp("127.0.0.1:0"), 0); });
  const int port = wait_bound_port(server);
  ASSERT_GT(port, 0);

  const int first = connect_tcp(port);
  ASSERT_GE(first, 0);
  write_str(first, kSolveLine);
  EXPECT_NE(read_line(first).find("\"status\":\"ok\""), std::string::npos);
  const int second = connect_tcp(port);
  ASSERT_GE(second, 0);
  EXPECT_EQ(read_line(second),
            "{\"id\":\"\",\"status\":\"overloaded\","
            "\"error\":{\"message\":\"server busy\"}}");
  EXPECT_EQ(read_all(second), "");
  ::close(second);
  ::close(first);
  server.request_drain();
  serving.join();
  EXPECT_EQ(
      metrics.counter("service.conn.rejected_overload", false)->value(), 1u);
}

TEST(ServiceTcp, IdleTimeoutClosesSilentConnection) {
  MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.metrics = &metrics;
  cfg.idle_timeout_ms = 50;
  Server server(cfg);
  std::thread serving([&] { EXPECT_EQ(server.run_tcp("127.0.0.1:0"), 0); });
  const int port = wait_bound_port(server);
  ASSERT_GT(port, 0);

  const int fd = connect_tcp(port);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(read_all(fd), "") << "idle connection must be hung up";
  ::close(fd);
  wait_no_connections(server);
  EXPECT_EQ(metrics.counter("service.conn.idle_closed", false)->value(), 1u);
  server.request_drain();
  serving.join();
}

TEST(ServiceTcp, SigtermDrainFlushesAcceptedResponses) {
  // The graceful-drain contract over TCP: a response in flight when
  // SIGTERM lands is still written before the server exits.
  Gate gate;
  MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.broker.workers = 1;
  cfg.broker.metrics = &metrics;
  cfg.broker.solve_fn = [&](const SolveRequest& req) {
    gate.entered.fetch_add(1);
    gate.wait_open();
    return solve(req);
  };
  Server server(cfg);
  ScopedDrainSignals signals(&server);
  std::thread serving([&] { EXPECT_EQ(server.run_tcp("127.0.0.1:0"), 0); });
  const int port = wait_bound_port(server);
  ASSERT_GT(port, 0);

  const int fd = connect_tcp(port);
  ASSERT_GE(fd, 0);
  write_str(fd, kSolveLine);
  gate.wait_entered(1);  // the request is on the worker
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  gate.release();
  const std::string resp = read_line(fd);
  EXPECT_NE(resp.find("\"id\":\"r\",\"status\":\"ok\""), std::string::npos)
      << resp;
  EXPECT_EQ(read_all(fd), "") << "server closes the connection after drain";
  ::close(fd);
  serving.join();
  EXPECT_EQ(metrics.counter("service.conn.reaped", false)->value(),
            metrics.counter("service.conn.accepted", false)->value());
}

TEST(ServiceTcp, RejectsUnparseableHostPort) {
  ServerConfig cfg;
  cfg.broker.workers = 1;
  Server server(cfg);
  EXPECT_EQ(server.run_tcp("127.0.0.1"), -1);
  EXPECT_NE(server.last_error().find("expects HOST:PORT"),
            std::string::npos)
      << server.last_error();
}

}  // namespace
}  // namespace encodesat
