// serve_repeat: NDJSON over a Unix socket to a real `encodesat_cli serve
// --workers 2` child, from two closed-loop client connections of this one
// process. The traced mode replays the same requests in-process through
// the service and cache entry points.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cache/canonical.h"
#include "cache/inflight.h"
#include "cache/solve_cache.h"
#include "core/solver.h"
#include "core/verify.h"
#include "inputs.h"
#include "layers.h"
#include "measure.h"
#include "service/json.h"
#include "service/protocol.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using encodesat::ConstraintSet;
using encodesat::JsonValue;

constexpr int kClients = 2;  // closed-loop connections
constexpr int kWorkers = 2;  // serve --workers

// Timed rounds: a fixed count for a given --seconds, sized by a nominal
// 0.25 s per round of 4000 hits on a 4-vCPU x86 VM, its share of the
// kSetups set-ups included, so that every run does the same work.
int rounds_for(const Options& opt) {
  return std::max(3, static_cast<int>(std::lround(opt.seconds / 0.25)));
}

// The rounds' figures are summarized by their fastest quarter (the
// nearest-rank 25th percentile of times), since host noise only adds time
// to the same work. Not a smaller share: each round passes its requests
// through five threads on the vCPUs, so the very fastest rounds are lucky
// thread placements rather than the program's cost.
constexpr double kFastestShare = 0.25;

// One client connection: a request line out, one reply line back.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool request(const std::string& line, std::string* reply) {
    out_ = line;
    out_ += '\n';
    for (std::size_t sent = 0; sent < out_.size();) {
      const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = in_.find('\n', scanned_);
      if (nl != std::string::npos) {
        reply->assign(in_, 0, nl);
        in_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = in_.size();
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      in_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string out_, in_;
  std::size_t scanned_ = 0;
};

// The `encodesat_cli serve` child process. The destructor stops it with
// SIGTERM (the graceful drain) and reaps it.
class ServeChild {
 public:
  ServeChild(const Options& opt, int index) {
    // A relative path keeps sun_path short wherever the checkout lives.
    path_ = opt.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
            std::to_string(index) + ".sock";
    if (path_.size() >= sizeof(sockaddr_un{}.sun_path))
      throw std::runtime_error("socket path too long: " + path_);
    ::unlink(path_.c_str());
    const std::string log = opt.out_dir + "/serve.log";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const std::string workers = std::to_string(kWorkers);
    const char* argv[] = {opt.cli.c_str(), "serve",   "--socket",
                          path_.c_str(),   "--workers", workers.c_str(),
                          nullptr};
    const int rc = posix_spawn(&pid_, opt.cli.c_str(), &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
      throw std::runtime_error("cannot start " + opt.cli + ": " +
                               std::strerror(rc));
  }
  ~ServeChild() {
    if (pid_ > 0) stop();
    ::unlink(path_.c_str());
  }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  pid_t pid() const { return pid_; }

  // SIGTERM (the graceful drain), then reap; SIGKILL after 20 s.
  void stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(t0, Clock::now()) > 20) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

  // Connects once the server listens. Retries every 100 µs: readiness
  // costs at most that much beyond the real start-up.
  std::unique_ptr<Conn> connect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        // A wedged server fails the run instead of hanging it.
        const timeval tv{60, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        return std::make_unique<Conn>(fd);
      }
      ::close(fd);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("serve exited before listening");
      }
      if (seconds_between(t0, Clock::now()) > 30)
        throw std::runtime_error("serve did not listen within 30 s");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

 private:
  std::string path_;
  pid_t pid_ = -1;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

// A server and its client connections (closed before the server stops).
struct Session {
  std::unique_ptr<ServeChild> server;
  Conns conns;

  void close() {
    conns.clear();
    server.reset();
  }
};

struct Rounds {
  std::vector<double> wall_s;                     // per round
  std::vector<double> server_cpu_s;               // per round
  std::vector<std::vector<double>> latency_ms;    // per round, per request
  std::vector<std::vector<std::string>> replies;  // "" = no reply

  void append(Rounds&& more) {
    for (std::size_t r = 0; r < more.wall_s.size(); ++r) {
      wall_s.push_back(more.wall_s[r]);
      server_cpu_s.push_back(more.server_cpu_s[r]);
      latency_ms.push_back(std::move(more.latency_ms[r]));
      replies.push_back(std::move(more.replies[r]));
    }
  }
};

// Sends `list` `num_rounds` times over the connections, request i on
// connection i % n, each client waiting for a reply before its next
// request. Rounds are separated by a barrier, between which the server
// `server` is idle, so each round's server CPU reads exactly; no round
// after the first starts after `guard_s` seconds.
Rounds send_rounds(Conns& conns, pid_t server,
                   const std::vector<WireInput>& list, int num_rounds,
                   double guard_s) {
  Rounds out;
  const auto n = static_cast<std::ptrdiff_t>(conns.size());
  std::barrier sync(n + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (std::ptrdiff_t c = 0; c < n; ++c)
    clients.emplace_back([&, c] {
      bool broken = false;
      for (int r = 0; r < num_rounds; ++r) {
        sync.arrive_and_wait();
        if (stop.load()) return;
        std::vector<double>& lat = out.latency_ms[static_cast<std::size_t>(r)];
        std::vector<std::string>& rep = out.replies[static_cast<std::size_t>(r)];
        for (std::size_t i = static_cast<std::size_t>(c); i < list.size() && !broken;
             i += static_cast<std::size_t>(n)) {
          const Clock::time_point t0 = Clock::now();
          broken = !conns[static_cast<std::size_t>(c)]->request(list[i].line, &rep[i]);
          lat[i] = seconds_between(t0, Clock::now()) * 1e3;
        }
        sync.arrive_and_wait();
      }
    });
  const Clock::time_point begin = Clock::now();
  for (int r = 0; r < num_rounds; ++r) {
    if (r > 0 && seconds_between(begin, Clock::now()) > guard_s) {
      stop = true;
      sync.arrive_and_wait();
      break;
    }
    out.latency_ms.emplace_back(list.size());
    out.replies.emplace_back(list.size());
    const double cpu0 = process_cpu_seconds(server);
    sync.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    sync.arrive_and_wait();
    out.wall_s.push_back(seconds_between(t0, Clock::now()));
    out.server_cpu_s.push_back(process_cpu_seconds(server) - cpu0);
  }
  for (std::thread& t : clients) t.join();
  return out;
}

// Counters and the queue-wait histogram from the `stats` op.
struct ServerStats {
  std::map<std::string, double> counters;
  std::map<double, double> queue_buckets;  // upper bound (µs) -> count
};

ServerStats fetch_stats(Conn& conn) {
  ServerStats s;
  std::string reply;
  JsonValue v;
  if (!conn.request("{\"id\":\"stats\",\"op\":\"stats\"}", &reply) ||
      !encodesat::json_parse(reply, &v))
    throw std::runtime_error("stats op failed");
  const JsonValue* stats = v.find("stats");
  if (!stats) throw std::runtime_error("stats op reply without stats");
  if (const JsonValue* c = stats->find("counters"))
    for (const auto& [name, value] : c->object) s.counters[name] = value.number;
  if (const JsonValue* h = stats->find("histograms"))
    if (const JsonValue* q = h->find("service.latency.queue"))
      if (const JsonValue* b = q->find("buckets"))
        for (const auto& [bound, count] : b->object)
          s.queue_buckets[bound == "+inf" ? HUGE_VAL : std::stod(bound)] =
              count.number;
  return s;
}

// The server's counters between two scrapes.
Counters counters_between(const ServerStats& after, const ServerStats& before) {
  auto value = [](const ServerStats& s, const std::string& name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : it->second;
  };
  Counters c;
  for (const std::string& name : counter_names())
    c[name] = static_cast<std::uint64_t>(value(after, name) - value(before, name));
  return c;
}

// What every round repeats exactly, summed over `rounds` rounds: the work
// counts and the requests the cache served. A canonical duplicate is a hit
// or coalesced depending on timing, so only their sum repeats.
using Values = std::vector<std::pair<std::string, double>>;
Values round_values(const Counters& c, std::size_t rounds) {
  Values values = recorded_counts(c);
  values.emplace_back("cache.served", static_cast<double>(
                                          c.at("cache.hits") + c.at("cache.coalesced")));
  for (auto& [name, v] : values) v /= static_cast<double>(rounds);
  return values;
}

// Median queue wait between two scrapes, at the histogram's bucket
// resolution.
double queue_wait_p50(const ServerStats& after, const ServerStats& before) {
  std::map<double, double> delta = after.queue_buckets;
  for (const auto& [bound, count] : before.queue_buckets) delta[bound] -= count;
  double total = 0;
  for (const auto& [bound, count] : delta) total += count;
  double seen = 0;
  for (const auto& [bound, count] : delta) {
    seen += count;
    if (seen >= std::ceil(total / 2)) return bound;
  }
  return 0;
}

// Checks one reply against the request's own constraints: status ok, a
// code for every symbol, and an encoding verify_encoding accepts. Returns
// "" when correct, else why not.
std::string check_reply(const WireInput& req, const std::string& reply,
                        int* bits_out) {
  if (reply.empty()) return "no response";
  JsonValue v;
  if (!encodesat::json_parse(reply, &v)) return "unparsable response";
  const JsonValue* id = v.find("id");
  if (!id || id->str != req.id) return "response id mismatch";
  const JsonValue* status = v.find("status");
  if (!status || status->str != "ok")
    return "status " + (status ? status->str : std::string("missing"));
  const JsonValue* bits = v.find("bits");
  const JsonValue* codes = v.find("codes");
  if (!bits || !codes || !codes->is_object()) return "no code table";
  if (!(bits->number >= 0 && bits->number <= 64)) return "bits out of range";
  std::optional<ConstraintSet> cs = encodesat::parse_constraints(req.text, nullptr);
  if (!cs) return "request constraints do not parse";
  encodesat::Encoding enc;
  enc.bits = static_cast<int>(bits->number);
  enc.codes.assign(cs->num_symbols(), 0);
  std::vector<bool> seen(cs->num_symbols(), false);
  for (const auto& [name, code] : codes->object) {
    if (!cs->symbols().contains(name)) return "code for unknown symbol " + name;
    if (code.str.size() != static_cast<std::size_t>(enc.bits))
      return "code length differs from bits";
    std::uint64_t value = 0;
    for (char ch : code.str) {
      if (ch != '0' && ch != '1') return "code is not binary";
      value = value * 2 + static_cast<std::uint64_t>(ch == '1');
    }
    const std::uint32_t sym = cs->symbols().at(name);
    enc.codes[sym] = value;
    seen[sym] = true;
  }
  for (bool s : seen)
    if (!s) return "symbol without a code";
  const auto violations = encodesat::verify_encoding(enc, *cs);
  if (!violations.empty()) return "verify_encoding: " + violations[0].to_string();
  *bits_out = enc.bits;
  return "";
}

struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double bits_sum = 0;
  std::uint64_t bits_count = 0;
};

// The answer check over every timed reply. Every round sends the same
// list, so round 0's replies are verified and a later round's reply must
// equal round 0's byte for byte (a differing reply is counted as failed,
// and as a determinism failure).
Checked check_rounds(const ServeInputs& in, const Rounds& rounds, Report& rep) {
  Checked c;
  std::size_t printed = 0;
  auto failure = [&](const std::string& what) {
    ++c.failed;
    if (printed++ < 5) rep.note("answer check: " + what);
  };
  bool changed = false;
  std::vector<bool> wrong(in.timed.size(), false);  // round 0's verdicts
  for (std::size_t r = 0; r < rounds.replies.size(); ++r)
    for (std::size_t i = 0; i < in.timed.size(); ++i) {
      ++c.attempted;
      const WireInput& req = in.timed[i];
      const std::string& reply = rounds.replies[r][i];
      if (r > 0) {
        if (reply != rounds.replies[0][i]) {
          failure(req.id + " in round " + std::to_string(r) +
                  " differs from round 0");
          changed = true;
        } else if (wrong[i]) {
          failure(req.id + " in round " + std::to_string(r) + ": as in round 0");
        }
        continue;
      }
      int bits = 0;
      const std::string why = check_reply(req, reply, &bits);
      if (!why.empty()) {
        wrong[i] = true;
        failure(req.id + ": " + why);
        continue;
      }
      c.bits_sum += bits;
      ++c.bits_count;
    }
  if (changed) rep.fail("determinism: a reply changed between rounds");
  if (c.failed > 0)
    rep.fail(std::to_string(c.failed) + " of " + std::to_string(c.attempted) +
             " answers failed the check");
  return c;
}

double code_bits_mean(const Checked& c) {
  return c.bits_sum / static_cast<double>(c.bits_count);
}

// One round's counts and the answers' code length against the recorded
// values.
void check_serve_recorded(const Options& opt, Values values, const Checked& c,
                          Report& rep) {
  values.emplace_back("code_bits_mean", code_bits_mean(c));
  check_recorded(opt, values, rep);
}

bool all_ok(const std::vector<std::string>& replies) {
  for (const std::string& r : replies)
    if (r.find("\"status\":\"ok\"") == std::string::npos) return false;
  return true;
}

// Spawns a server and runs one set-up: ready, pool pre-solve, warm-up.
// `*setup_s` gets its duration.
Session set_up(const Options& opt, const ServeInputs& in, int index,
               double* setup_s, Report& rep) {
  const Clock::time_point t0 = Clock::now();
  Session s;
  s.server = std::make_unique<ServeChild>(opt, index);
  for (int c = 0; c < kClients; ++c) s.conns.push_back(s.server->connect());
  bool ok = true;
  std::string reply;
  for (const WireInput& w : in.presolve)
    ok = s.conns[0]->request(w.line, &reply) && all_ok({reply}) && ok;
  ok = all_ok(send_rounds(s.conns, s.server->pid(), in.warmup, 1, HUGE_VAL)
                  .replies[0]) &&
       ok;
  *setup_s = seconds_between(t0, Clock::now());
  if (!ok) rep.fail("a set-up request was not answered ok");
  return s;
}

// The fastest quarter over the timed rounds of each round's median latency.
double client_p50_ms(const Rounds& rounds) {
  std::vector<double> p50;
  for (const std::vector<double>& lat : rounds.latency_ms)
    p50.push_back(percentile(lat, 0.50));
  return percentile(p50, kFastestShare);
}

// The timed rounds' figures: each round's latency percentiles, wall time
// and server CPU, summarized over the rounds by their fastest quarter.
void set_round_metrics(const Rounds& rounds, Report& rep,
                       const std::string& what) {
  std::vector<double> p99;
  std::size_t beyond = SIZE_MAX;
  for (const std::vector<double>& lat : rounds.latency_ms) {
    p99.push_back(percentile(lat, 0.99));
    beyond = std::min(beyond, samples_beyond(lat.size(), 0.99));
  }
  const auto per_round = static_cast<double>(rounds.latency_ms[0].size());
  const std::string over = "fastest quarter of " + what;
  rep.set("latency_p50_ms", client_p50_ms(rounds), "ms", over);
  if (beyond >= 10)
    rep.set("latency_p99_ms", percentile(p99, kFastestShare), "ms",
            over + ", " + std::to_string(beyond) +
                " samples beyond p99 per round");
  const double round_s = percentile(rounds.wall_s, kFastestShare);
  const double round_cpu_s = percentile(rounds.server_cpu_s, kFastestShare);
  rep.set("throughput_rps", per_round / round_s, "1/s",
          "requests per round / round wall time, " + over);
  rep.set("cpu_ms_per_req", round_cpu_s * 1e3 / per_round, "ms",
          "serve child CPU per round / requests per round, " + over);
}

// What the timed rounds cost the server, from outside.
struct ServerCost {
  std::vector<double> rss_mb;       // per server
  std::vector<Values> per_round;    // per server: round_values per round
};

// Runs `num_rounds` timed rounds on a set-up session and adds their cost.
Rounds timed_rounds(Session& s, const ServeInputs& in, int num_rounds,
                    double guard_s, ServerCost* cost) {
  const ServerStats before = fetch_stats(*s.conns[0]);
  Rounds rounds =
      send_rounds(s.conns, s.server->pid(), in.timed, num_rounds, guard_s);
  const ServerStats after = fetch_stats(*s.conns[0]);
  cost->rss_mb.push_back(peak_rss_mb(s.server->pid()));
  cost->per_round.push_back(
      round_values(counters_between(after, before), rounds.wall_s.size()));
  return rounds;
}

// ---- traced mode ---------------------------------------------------------

struct Replay {
  double wall_s = 0;  // the timed list only
  std::vector<std::string> lines;
  Counters counts;    // deltas over the timed list
  std::vector<encodesat::StageStats> stages;  // one per timed request
  std::size_t first_timed_span = 0;
};

// Replays the set-up and one timed round in-process, in send order,
// through the calls the server makes: parse_request, parse_constraints,
// solve() with the server's cache set-up, render_response.
Replay replay(const ServeInputs& in, SpanRecorder& spans) {
  Replay out;
  encodesat::CacheConfig config;  // serve's default --cache-size
  config.max_bytes = 64u << 20;
  encodesat::SolveCache cache(config);
  encodesat::InFlightTable inflight;
  encodesat::MetricsRegistry metrics;
  auto handle = [&](const WireInput& w, bool timed) {
    ScopedSpan request(spans, "request", w.id);
    encodesat::WireRequest wire;
    std::optional<ConstraintSet> cs;
    encodesat::SolveOptions opts;
    opts.exec.threads = 1;  // serve's default --threads
    {
      ScopedSpan span(spans, "parse_request", w.id);
      std::string err;
      if (encodesat::parse_request(w.line, &wire, &err))
        cs = encodesat::parse_constraints(wire.constraints, nullptr);
      if (!cs || !encodesat::apply_wire_options(wire, &opts)) return std::string();
    }
    const encodesat::SymbolTable symbols = cs->symbols();
    encodesat::SolveRequest req;
    req.id = wire.id;
    req.constraints = std::move(*cs);
    req.options = std::move(opts);
    req.options.cache.store = &cache;
    req.options.cache.single_flight = &inflight;
    req.options.cache.enabled = true;
    req.options.exec.metrics = &metrics;
    encodesat::SolveResponse resp;
    {
      ScopedSpan span(spans, "solve", w.id);
      resp = encodesat::solve(req);
    }
    resp.id = req.id;
    std::string line;
    {
      ScopedSpan span(spans, "render_response", w.id);
      line = encodesat::render_response(resp, &symbols);
    }
    if (timed && spans.enabled()) out.stages.push_back(std::move(resp.result.stats));
    return line;
  };
  for (const WireInput& w : in.presolve) handle(w, false);
  for (const WireInput& w : in.warmup) handle(w, false);
  const Counters before = read_counters(metrics);
  out.first_timed_span = spans.spans().size();
  const Clock::time_point t0 = Clock::now();
  for (const WireInput& w : in.timed) out.lines.push_back(handle(w, true));
  out.wall_s = seconds_between(t0, Clock::now());
  out.counts = counter_delta(read_counters(metrics), before);
  return out;
}

// Share of the timed requests whose canonical form is exact.
void set_canonical_metric(const ServeInputs& in, Report& rep) {
  const std::size_t leaves = encodesat::SolveOptions{}.cache.max_canon_leaves;
  std::size_t exact = 0;
  for (const WireInput& w : in.timed)
    exact += encodesat::canonicalize(encodesat::parse_constraints(w.text), leaves)
                 .canon.exact;
  rep.set("cache.canon_exact_pct",
          100.0 * static_cast<double>(exact) / static_cast<double>(in.timed.size()),
          "%", "share of " + std::to_string(in.timed.size()) + " timed requests");
}

void run_traced(const Options& opt, const ServeInputs& in, Report& rep,
                SpanRecorder& spans) {
  double setup_s = 0;
  Session session = set_up(opt, in, 0, &setup_s, rep);
  const ServerStats before = fetch_stats(*session.conns[0]);
  const Rounds rounds =
      send_rounds(session.conns, session.server->pid(), in.timed, 1, HUGE_VAL);
  const ServerStats after = fetch_stats(*session.conns[0]);
  session.close();
  const Checked checked = check_rounds(in, rounds, rep);
  rep.attempted = checked.attempted;
  rep.failed = checked.failed;

  // Same replay twice: spans off, then on. The counts must agree, and the
  // wall-time ratio is the tracing overhead.
  SpanRecorder off(false);
  const Replay plain = replay(in, off);
  const Replay traced = replay(in, spans);
  check_counts_repeat(rep, plain.counts, traced.counts);
  check_serve_recorded(opt, round_values(traced.counts, 1), checked, rep);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < in.timed.size(); ++i)
    mismatched += traced.lines[i] != rounds.replies[0][i] ||
                  plain.lines[i] != rounds.replies[0][i];
  if (mismatched > 0)
    rep.fail(std::to_string(mismatched) +
             " replayed responses differ from the server's bytes");
  else
    rep.note("replay: all " + std::to_string(in.timed.size()) +
             " replayed responses equal the server's byte for byte");

  std::vector<double> request_us, parse_us, render_us;
  const std::vector<Span>& all = spans.spans();
  for (std::size_t i = traced.first_timed_span; i < all.size(); ++i) {
    const std::string_view name = all[i].name;
    const double us = all[i].duration_us();
    if (name == "request") request_us.push_back(us);
    if (name == "parse_request") parse_us.push_back(us);
    if (name == "render_response") render_us.push_back(us);
  }
  set_call_metrics(rep, "service.parse", parse_us, "parse_request calls");
  set_call_metrics(rep, "service.render", render_us, "render_response calls");
  rep.set("service.transport_us",
          client_p50_ms(rounds) * 1e3 - median(request_us), "us",
          "client p50 minus median in-process handling of " +
              std::to_string(request_us.size()) + " requests");
  rep.set("service.queue_wait_us", queue_wait_p50(after, before), "us",
          "p50 of the server's service.latency.queue over the timed round");
  set_stage_metrics(rep, traced.stages);
  set_counter_metrics(rep, traced.counts);
  set_canonical_metric(in, rep);
  rep.set("trace.overhead_pct", (traced.wall_s / plain.wall_s - 1) * 100, "%",
          "traced against untraced in-process replay of " +
              std::to_string(in.timed.size()) + " requests");
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  SpanRecorder spans(opt.trace);
  const ServeInputs in =
      make_serve_inputs(opt.seed, opt.trace ? &spans : nullptr);
  rep.note("inputs: " + std::to_string(in.machines) + " machines behind " +
           std::to_string(in.timed.size()) + " timed requests per round; each set-up sends " +
           std::to_string(in.presolve.size()) + " pre-solve + " +
           std::to_string(in.warmup.size()) + " warm-up requests");
  if (!accept_inputs(opt, in.base_hash, in.seeded_hash, rep)) return;
  if (opt.trace) {
    set_gen_metric(rep, spans, "generate_mixed_constraints");
    run_traced(opt, in, rep, spans);
    write_trace(opt, spans, rep);
    return;
  }

  // kSetups sessions, each a set-up on a fresh server and then its share
  // of the timed rounds, so the set-ups are spread over the run.
  const Clock::time_point begin = Clock::now();
  const int num_rounds = rounds_for(opt);
  const int sessions = std::min(kSetups, num_rounds);
  std::vector<double> setups;
  ServerCost cost;
  Rounds rounds;
  for (int i = 0; i < sessions; ++i) {
    const double left_s =
        kRoundGuard * opt.seconds - seconds_between(begin, Clock::now());
    if (left_s <= 0) break;
    Session session = set_up(opt, in, i, &setups.emplace_back(), rep);
    const int share =
        (i + 1) * num_rounds / sessions - i * num_rounds / sessions;
    rounds.append(timed_rounds(session, in, share, left_s - setups.back(), &cost));
  }
  const std::size_t ran = rounds.wall_s.size();
  if (static_cast<int>(ran) < num_rounds)
    rep.note("round guard: ran " + std::to_string(ran) + " of " +
             std::to_string(num_rounds) + " rounds before the time guard");
  const Checked checked = check_rounds(in, rounds, rep);
  rep.attempted = checked.attempted;
  rep.failed = checked.failed;
  const std::string what = std::to_string(ran) + " rounds x " +
                           std::to_string(in.timed.size()) + " requests";
  set_round_metrics(rounds, rep, what);
  rep.set("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) +
              " set-ups: spawn to ready, pre-solve, warm-up");
  rep.set("peak_rss_mb", median(cost.rss_mb), "MB",
          "VmHWM of the serve child, median of " +
              std::to_string(cost.rss_mb.size()) + " servers");
  rep.set("failed_pct",
          100.0 * static_cast<double>(checked.failed) /
              static_cast<double>(checked.attempted),
          "%", std::to_string(checked.attempted) + " answers checked");
  if (checked.bits_count > 0)
    rep.set("code_bits_mean", code_bits_mean(checked), "bits",
            "mean over " + std::to_string(checked.bits_count) + " verified answers");

  // Determinism guard: every server does the same work per round, and
  // every timed request hits.
  for (std::size_t i = 1; i < cost.per_round.size(); ++i)
    for (std::size_t k = 0; k < cost.per_round[i].size(); ++k)
      if (cost.per_round[i][k] != cost.per_round[0][k])
        rep.fail("determinism: " + cost.per_round[0][k].first +
                 " per round read " + number_text(cost.per_round[i][k].second) +
                 " on server " + std::to_string(i) + " and " +
                 number_text(cost.per_round[0][k].second) + " on server 0");
  check_serve_recorded(opt, cost.per_round[0], checked, rep);
  for (const auto& [name, v] : cost.per_round[0])
    if (name == "cache.served" && v != static_cast<double>(in.timed.size()))
      rep.fail("determinism: every timed request should hit the cache");
}

}  // namespace perfbench
