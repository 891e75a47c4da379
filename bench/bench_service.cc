// Repeat-workload benchmark for the solve service (src/service/broker.h):
// quantifies what the shared cache + single-flight coalescing buy a warm
// `encodesat serve` over cold per-request solving.
//
//   bench_service [--reps N] [--out FILE] [--check-speedup X]
//
// Workload: 4 concurrent clients, each submitting 8 requests that are
// symbol-rotated renderings of one canonical instance (the chain-face
// shape from bench_primes' solve-cache cases) — the recurring-instance
// pattern the service is built for. Two measurements:
//
//  * serve_warm — all 32 requests through one Broker with a shared
//    SolveCache: one pipeline run pays the solve, everything else is a
//    canonicalize+lookup or a coalesced attach. The exact hit/coalesce
//    split depends on scheduling, so the JSON guards `cache_misses` and
//    the combined `cache_reuse = hits + coalesced` (deterministic), never
//    the split.
//  * solve_cold — the same 32 requests as independent uncached solves on
//    the same number of threads: the per-request cost a client pays
//    without the service.
//
// Schema (encodesat-bench-service-v2) is compare_bench.py-compatible:
// wall-time regressions against bench/BENCH_service.json fail the
// service_bench_check ctest, counter drift is a hard determinism failure.
// v2 adds the warm case's `solve.work` histogram bucket counts: every
// reuse request observes zero pipeline work and the one real solve
// observes the instance's work units, so the bucket profile is exact and
// scheduling-invariant (the per-stage histograms are not — a hit's stage
// tree differs from a coalesced follower's — and duration histograms are
// wall clock; both stay unguarded). --check-speedup X additionally exits
// nonzero when warm is not at least X times faster than cold — the
// service's reason to exist, pinned.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/canonical.h"
#include "cache/solve_cache.h"
#include "core/solver.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "service/broker.h"
#include "service/server.h"
#include "util/timer.h"

using namespace encodesat;

namespace {

constexpr int kClients = 4;
constexpr int kPerClient = 8;

struct CaseResult {
  std::string name;
  double wall_seconds = 0;
  bool truncated = false;
  std::uint64_t requests = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_reuse = 0;  // hits + coalesced, scheduling-invariant
  // Connection-lifecycle counters for the churn cases: every connect is
  // accepted and every disconnect reaped, so both are deterministic.
  bool has_conns = false;
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_reaped = 0;
  // solve.work bucket profile as (boundary, count), scheduling-invariant
  // for the warm workload; empty for the cold case.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> work_buckets;
};

// The chain-face instance from bench_primes' solve-cache cases: exactly
// solvable, with enough pipeline work that a full solve dwarfs a
// canonicalize+lookup round trip.
ConstraintSet chain_faces(int n) {
  ConstraintSet cs;
  for (int i = 0; i < n; ++i) cs.symbols().intern("s" + std::to_string(i));
  auto face = [&](std::initializer_list<int> m) {
    std::vector<std::uint32_t> ids;
    for (int id : m) ids.push_back(static_cast<std::uint32_t>(id));
    cs.add_face_ids(std::move(ids));
  };
  for (int i = 0; i + 2 < n; ++i) face({i, i + 1, i + 2});
  for (int i = 0; i + 7 < n; i += 2) face({i, i + 7});
  for (int i = 0; i + 11 < n; i += 3) face({i, i + 11});
  return cs;
}

// One rendering per request: request k is the base instance with symbols
// rotated by 3k — the same canonical instance every time.
std::vector<ConstraintSet> renderings(const ConstraintSet& base, int count) {
  const std::uint32_t n = base.num_symbols();
  std::vector<ConstraintSet> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i)
      perm[i] = (i + 3 * static_cast<std::uint32_t>(k)) % n;
    out.push_back(apply_symbol_permutation(base, perm));
  }
  return out;
}

CaseResult run_warm(const std::vector<ConstraintSet>& reqs, int reps) {
  CaseResult out;
  out.name = "serve_warm32_chain10";
  out.requests = reqs.size();
  out.wall_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    SolveCache cache;
    MetricsRegistry metrics;
    BrokerConfig cfg;
    cfg.workers = kClients;
    cfg.max_queue = 0;
    cfg.cache = &cache;
    cfg.metrics = &metrics;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    bool truncated = false;
    Timer t;
    {
      Broker broker(cfg);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
          for (int i = 0; i < kPerClient; ++i) {
            SolveRequest req;
            req.constraints = reqs[static_cast<std::size_t>(
                c * kPerClient + i)];
            broker.submit(std::move(req), [&](SolveResponse resp) {
              std::lock_guard<std::mutex> lock(mu);
              truncated = truncated || resp.result.truncated;
              if (++done == reqs.size()) cv.notify_one();
            });
          }
        });
      for (std::thread& th : clients) th.join();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == reqs.size(); });
      broker.drain(DrainMode::kFinishQueued);
      const double secs = t.elapsed_seconds();
      if (secs < out.wall_seconds) out.wall_seconds = secs;
      out.truncated = truncated;
      out.cache_misses = cache.stats().misses;
      out.cache_reuse =
          cache.stats().hits + broker.single_flight().stats().coalesced;
      out.work_buckets.clear();
      const std::vector<std::uint64_t>& bounds =
          histogram_buckets::boundaries();
      for (const auto& [bucket, n] :
           metrics.histogram("solve.work")->nonzero_buckets())
        out.work_buckets.emplace_back(
            bucket < bounds.size() ? bounds[bucket] : ~0ull, n);
    }
  }
  return out;
}

CaseResult run_cold(const std::vector<ConstraintSet>& reqs, int reps) {
  CaseResult out;
  out.name = "solve_cold32_chain10";
  out.requests = reqs.size();
  out.wall_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> truncated{false};
    Timer t;
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c)
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= reqs.size()) return;
          const SolveResult res = Solver(reqs[i]).encode({});
          if (res.truncated) truncated.store(true);
        }
      });
    for (std::thread& th : workers) th.join();
    const double secs = t.elapsed_seconds();
    if (secs < out.wall_seconds) out.wall_seconds = secs;
    out.truncated = truncated.load();
  }
  return out;
}

// ---------------------------------------------- socket churn workload --

// The chain-face instance as wire text, symbols rotated by `rot` — the
// same canonical instance as chain_faces(n) under every rotation, so the
// whole churn workload coalesces onto one real solve (cache_misses == 1,
// deterministic). Newlines are pre-escaped for embedding in a JSON
// request line.
std::string chain_faces_wire(int n, int rot) {
  const auto sym = [&](int i) {
    return " s" + std::to_string((i + rot) % n);
  };
  std::string out;
  const auto face = [&](std::initializer_list<int> m) {
    out += "face";
    for (int id : m) out += sym(id);
    out += "\\n";
  };
  for (int i = 0; i + 2 < n; ++i) face({i, i + 1, i + 2});
  for (int i = 0; i + 7 < n; i += 2) face({i, i + 7});
  for (int i = 0; i + 11 < n; i += 3) face({i, i + 11});
  return out;
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

bool read_ok_line(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line.find("\"status\":\"ok\"") != std::string::npos;
    line.push_back(c);
  }
  return false;
}

// 8 clients, each opening kConnsPerClient short-lived connections that
// send kReqsPerConn pipelined requests and disconnect — the
// connect/solve/disconnect churn the reaping event loop exists for. The
// Unix and TCP variants run the identical workload, so their relative
// wall time is the transport tax (guarded by --check-tcp-parity).
CaseResult run_churn(int reps, bool tcp) {
  constexpr int kChurnClients = 8;
  constexpr int kConnsPerClient = 4;
  constexpr int kReqsPerConn = 2;
  CaseResult out;
  out.name = tcp ? "churn_tcp8_chain10" : "churn_unix8_chain10";
  out.requests = kChurnClients * kConnsPerClient * kReqsPerConn;
  out.has_conns = true;
  out.wall_seconds = 1e30;
  char sock_path[128];
  std::snprintf(sock_path, sizeof sock_path,
                "/tmp/encodesat_bench_churn_%d.sock",
                static_cast<int>(::getpid()));
  for (int r = 0; r < reps; ++r) {
    SolveCache cache;
    MetricsRegistry metrics;
    ServerConfig cfg;
    cfg.broker.workers = 4;
    cfg.broker.max_queue = 0;
    cfg.broker.cache = &cache;
    cfg.broker.metrics = &metrics;
    Server server(cfg);
    std::thread serving([&] {
      const int rc = tcp ? server.run_tcp("127.0.0.1:0")
                         : server.run_unix_socket(sock_path);
      if (rc != 0)
        std::fprintf(stderr, "churn server failed: %s\n",
                     server.last_error().c_str());
    });
    // Wait until the listener answers before the clock starts.
    int port = 0;
    if (tcp)
      while ((port = server.bound_port()) == 0) std::this_thread::yield();
    for (;;) {
      const int probe = tcp ? connect_tcp(port) : connect_unix(sock_path);
      if (probe >= 0) {
        ::close(probe);
        break;
      }
      std::this_thread::yield();
    }
    while (server.live_connections() != 0) std::this_thread::yield();

    std::atomic<int> ok{0};
    Timer t;
    std::vector<std::thread> clients;
    for (int c = 0; c < kChurnClients; ++c)
      clients.emplace_back([&, c] {
        for (int conn = 0; conn < kConnsPerClient; ++conn) {
          const int fd = tcp ? connect_tcp(port) : connect_unix(sock_path);
          if (fd < 0) return;
          std::string batch;
          for (int i = 0; i < kReqsPerConn; ++i) {
            const int rot = 3 * (c * kConnsPerClient * kReqsPerConn +
                                 conn * kReqsPerConn + i);
            batch += "{\"id\":\"c" + std::to_string(c) +
                     "\",\"constraints\":\"" + chain_faces_wire(10, rot) +
                     "\"}\n";
          }
          if (::write(fd, batch.data(), batch.size()) ==
              static_cast<ssize_t>(batch.size()))
            for (int i = 0; i < kReqsPerConn; ++i)
              if (read_ok_line(fd)) ok.fetch_add(1);
          ::close(fd);
        }
      });
    for (std::thread& th : clients) th.join();
    // Wait for the reaps so accepted == reaped deterministically.
    while (server.live_connections() != 0) std::this_thread::yield();
    const double secs = t.elapsed_seconds();
    server.request_drain();
    serving.join();
    if (ok.load() != static_cast<int>(out.requests)) {
      std::fprintf(stderr, "churn: only %d/%llu requests answered ok\n",
                   ok.load(),
                   static_cast<unsigned long long>(out.requests));
      out.truncated = true;
    }
    if (secs < out.wall_seconds) out.wall_seconds = secs;
    out.cache_misses = cache.stats().misses;
    out.cache_reuse =
        cache.stats().hits + server.broker().single_flight().stats().coalesced;
    out.conns_accepted =
        metrics.counter("service.conn.accepted", false)->value();
    out.conns_reaped = metrics.counter("service.conn.reaped", false)->value();
    out.work_buckets.clear();
    const std::vector<std::uint64_t>& bounds =
        histogram_buckets::boundaries();
    for (const auto& [bucket, n] :
         metrics.histogram("solve.work")->nonzero_buckets())
      out.work_buckets.emplace_back(
          bucket < bounds.size() ? bounds[bucket] : ~0ull, n);
  }
  return out;
}

void write_json(std::FILE* f, const std::vector<CaseResult>& cases) {
  std::fprintf(f, "{\n  \"schema\": \"encodesat-bench-service-v2\",\n");
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                 "\"truncated\": %s, "
                 "\"counters\": {\"requests\": %llu, "
                 "\"cache_misses\": %llu, \"cache_reuse\": %llu",
                 c.name.c_str(), c.wall_seconds,
                 c.truncated ? "true" : "false",
                 static_cast<unsigned long long>(c.requests),
                 static_cast<unsigned long long>(c.cache_misses),
                 static_cast<unsigned long long>(c.cache_reuse));
    // Inside "counters" so compare_bench.py's determinism guard covers
    // them: a missed reap shows up as counter drift, a hard failure.
    if (c.has_conns)
      std::fprintf(f, ", \"conns_accepted\": %llu, \"conns_reaped\": %llu",
                   static_cast<unsigned long long>(c.conns_accepted),
                   static_cast<unsigned long long>(c.conns_reaped));
    std::fprintf(f, "}");
    if (!c.work_buckets.empty()) {
      std::fprintf(f, ", \"histograms\": {\"solve.work\": {\"buckets\": {");
      for (std::size_t b = 0; b < c.work_buckets.size(); ++b)
        std::fprintf(f, "%s\"%llu\": %llu", b ? ", " : "",
                     static_cast<unsigned long long>(c.work_buckets[b].first),
                     static_cast<unsigned long long>(
                         c.work_buckets[b].second));
      std::fprintf(f, "}}}");
    }
    std::fprintf(f, "}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  const char* out_path = nullptr;
  double check_speedup = 0;
  double check_tcp_parity = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else if (!std::strcmp(argv[i], "--check-speedup") && i + 1 < argc)
      check_speedup = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--check-tcp-parity") && i + 1 < argc)
      check_tcp_parity = std::atof(argv[++i]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--reps N] [--out FILE] [--check-speedup X] "
                   "[--check-tcp-parity X]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  const ConstraintSet base = chain_faces(10);
  const std::vector<ConstraintSet> reqs =
      renderings(base, kClients * kPerClient);

  std::vector<CaseResult> cases;
  cases.push_back(run_cold(reqs, reps));
  cases.push_back(run_warm(reqs, reps));
  cases.push_back(run_churn(reps, /*tcp=*/false));
  cases.push_back(run_churn(reps, /*tcp=*/true));
  const CaseResult& cold = cases[0];
  const CaseResult& warm = cases[1];
  const CaseResult& churn_unix = cases[2];
  const CaseResult& churn_tcp = cases[3];

  std::printf("%-24s %12s %9s %12s %12s %8s %8s\n", "case", "wall_s",
              "requests", "cache_miss", "cache_reuse", "accepted", "reaped");
  for (const CaseResult& c : cases)
    std::printf("%-24s %12.6f %9llu %12llu %12llu %8llu %8llu\n",
                c.name.c_str(), c.wall_seconds,
                static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.cache_misses),
                static_cast<unsigned long long>(c.cache_reuse),
                static_cast<unsigned long long>(c.conns_accepted),
                static_cast<unsigned long long>(c.conns_reaped));
  const double speedup =
      warm.wall_seconds > 0 ? cold.wall_seconds / warm.wall_seconds : 0;
  std::fprintf(stderr, "serve speedup: %.1fx warm over cold\n", speedup);
  const double tcp_parity = churn_tcp.wall_seconds > 0
                                ? churn_unix.wall_seconds /
                                      churn_tcp.wall_seconds
                                : 0;
  std::fprintf(stderr,
               "tcp churn parity: %.2fx of the unix-socket throughput\n",
               tcp_parity);

  if (out_path) {
    std::FILE* f = std::fopen(out_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    write_json(f, cases);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path);
  }
  if (check_speedup > 0 && speedup < check_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the %.1fx floor\n",
                 speedup, check_speedup);
    return 1;
  }
  if (check_tcp_parity > 0 && tcp_parity < check_tcp_parity) {
    std::fprintf(stderr,
                 "FAIL: tcp churn at %.2fx of unix throughput, below the "
                 "%.2fx floor\n",
                 tcp_parity, check_tcp_parity);
    return 1;
  }
  for (const CaseResult& c : cases)
    if (c.truncated && c.has_conns) {
      std::fprintf(stderr, "FAIL: churn case %s lost responses\n",
                   c.name.c_str());
      return 1;
    }
  return 0;
}
