// Tests for InFlightTable::resolve, the one path every cached solve takes:
// the lookup, leading or following, a follower's own deadline, what is
// stored and handed over, and the five cache.* counters. Each case parks
// its leader inside `solve` at a Gate, so it runs one fixed interleaving.
// Also built with -fsanitize=thread as the inflight_tsan ctest, so this
// file depends only on the cache, util and obs sources.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/inflight.h"
#include "cache/solve_cache.h"
#include "obs/counters.h"
#include "util/exec.h"

namespace encodesat {
namespace {

using Resolution = InFlightTable::Resolution;
using SolveFn = std::function<SolveOutcome(const ExecContext&)>;

const std::string kKey = "k#0";

// Holds every solve that passes it until release().
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void pass() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void await_entered(int n) const {
    while (entered.load() < n) std::this_thread::yield();
  }
};

// Spins until `n` callers have attached to the key in flight.
void await_followers(const InFlightTable& table, std::uint64_t n) {
  while (table.stats().coalesced < n) std::this_thread::yield();
}

SolveOutcome encoded(std::vector<std::uint64_t> codes) {
  SolveOutcome v;
  v.status = SolveOutcome::Status::kEncoded;
  v.encoding.bits = 2;
  v.encoding.codes = std::move(codes);
  return v;
}

// One caller of resolve with its own budget, stats root and result.
struct Call {
  Budget budget;
  StageStats stats{"solve"};
  SolveOutcome out;
  Resolution how = Resolution::kHit;

  void run(InFlightTable& table, SolveCache* cache, MetricsRegistry& metrics,
           const SolveFn& solve) {
    const ExecContext ctx{&budget, &stats, 1, nullptr, &metrics};
    how = table.resolve(cache, kKey, ctx, solve, &out);
  }
};

// hits, misses, coalesced, wait_expired, inserts.
std::vector<std::uint64_t> counts(MetricsRegistry& metrics) {
  std::vector<std::uint64_t> v;
  for (const char* name : {"cache.hits", "cache.misses", "cache.coalesced",
                           "cache.wait_expired", "cache.inserts"})
    v.push_back(metrics.counter(name, false)->value());
  return v;
}

void expect_table(const InFlightTable& table, std::uint64_t leaders,
                  std::uint64_t coalesced, std::uint64_t abandoned) {
  const CoalesceStats s = table.stats();
  EXPECT_EQ(s.leaders, leaders);
  EXPECT_EQ(s.coalesced, coalesced);
  EXPECT_EQ(s.abandoned, abandoned);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(InFlight, LeaderFollowersAndLateHit) {
  SolveCache cache;
  InFlightTable table;
  MetricsRegistry metrics;
  Gate gate;
  const SolveOutcome value = encoded({0, 1, 3});
  std::atomic<int> solves{0};
  const SolveFn solve = [&](const ExecContext&) {
    solves.fetch_add(1);
    gate.pass();
    return value;
  };

  Call leader, f1, f2, late;
  std::thread lead([&] { leader.run(table, &cache, metrics, solve); });
  gate.await_entered(1);
  std::thread t1([&] { f1.run(table, &cache, metrics, solve); });
  std::thread t2([&] { f2.run(table, &cache, metrics, solve); });
  await_followers(table, 2);
  gate.release();
  lead.join();
  t1.join();
  t2.join();

  EXPECT_EQ(leader.how, Resolution::kSolved);
  for (const Call* f : {&f1, &f2}) {
    EXPECT_EQ(f->how, Resolution::kCoalesced);
    EXPECT_EQ(f->out.encoding.codes, value.encoding.codes);
    ASSERT_EQ(f->stats.children.size(), 2u);
    EXPECT_EQ(f->stats.children[0].name, "cache_lookup");
    EXPECT_EQ(f->stats.children[1].name, "coalesce_wait");
  }
  // The leader inserted before it released the key: a late call hits.
  late.run(table, &cache, metrics, solve);
  EXPECT_EQ(late.how, Resolution::kHit);
  EXPECT_EQ(late.out.encoding.codes, value.encoding.codes);
  ASSERT_EQ(late.stats.children.size(), 1u);
  EXPECT_EQ(late.stats.children[0].name, "cache_lookup");

  EXPECT_EQ(solves.load(), 1);
  EXPECT_EQ(counts(metrics), (std::vector<std::uint64_t>{1, 1, 2, 0, 1}));
  expect_table(table, 1, 2, 0);
}

TEST(InFlight, TruncatedLeaderLeavesTheKeyToItsFollower) {
  // The leader's budget truncates its result, so it stores nothing and
  // hands its follower nothing; the follower solves under its own budget,
  // and its result is the one cached.
  SolveCache cache;
  InFlightTable table;
  MetricsRegistry metrics;
  Gate gate;
  SolveOutcome truncated;
  truncated.status = SolveOutcome::Status::kTruncated;
  truncated.truncation = Truncation::kWorkBudget;
  const SolveOutcome value = encoded({2, 0, 1});

  Call leader, follower;
  std::thread lead([&] {
    leader.run(table, &cache, metrics, [&](const ExecContext&) {
      gate.pass();
      return truncated;
    });
  });
  gate.await_entered(1);
  std::thread follow([&] {
    follower.run(table, &cache, metrics,
                 [&](const ExecContext&) { return value; });
  });
  await_followers(table, 1);
  gate.release();
  lead.join();
  follow.join();

  EXPECT_EQ(leader.how, Resolution::kSolved);
  EXPECT_EQ(leader.out.truncation, Truncation::kWorkBudget);
  EXPECT_EQ(follower.how, Resolution::kSolved);
  EXPECT_EQ(follower.out.encoding.codes, value.encoding.codes);
  SolveOutcome stored;
  ASSERT_TRUE(cache.lookup(kKey, &stored));
  EXPECT_EQ(stored.encoding.codes, value.encoding.codes);
  EXPECT_EQ(cache.stats().inserts, 1u);

  EXPECT_EQ(counts(metrics), (std::vector<std::uint64_t>{0, 2, 0, 0, 1}));
  expect_table(table, 1, 1, 1);
}

TEST(InFlight, FollowerDeadlineExpiresWhileWaiting) {
  SolveCache cache;
  InFlightTable table;
  MetricsRegistry metrics;
  Gate gate;
  const SolveOutcome value = encoded({1, 0});

  Call leader, follower;
  std::thread lead([&] {
    leader.run(table, &cache, metrics, [&](const ExecContext&) {
      gate.pass();
      return value;
    });
  });
  gate.await_entered(1);
  follower.budget.set_deadline_after(0.02);
  bool follower_solved = false;
  follower.run(table, &cache, metrics, [&](const ExecContext&) {
    follower_solved = true;
    return value;
  });
  EXPECT_EQ(follower.how, Resolution::kExpired);
  EXPECT_FALSE(follower_solved);
  EXPECT_EQ(follower.budget.reason(), Truncation::kDeadline);
  EXPECT_EQ(follower.out.status, SolveOutcome::Status::kTruncated);
  ASSERT_EQ(follower.stats.children.size(), 2u);
  EXPECT_EQ(follower.stats.children[1].name, "coalesce_wait");
  gate.release();
  lead.join();

  EXPECT_EQ(leader.how, Resolution::kSolved);
  EXPECT_EQ(counts(metrics), (std::vector<std::uint64_t>{0, 1, 0, 1, 1}));
  expect_table(table, 1, 1, 0);
}

TEST(InFlight, ThrowingLeaderReleasesItsFollower) {
  SolveCache cache;
  InFlightTable table;
  MetricsRegistry metrics;
  Gate gate;
  const SolveOutcome value = encoded({0, 2, 1});

  Call leader, follower;
  bool leader_threw = false;
  std::thread lead([&] {
    try {
      leader.run(table, &cache, metrics,
                 [&](const ExecContext&) -> SolveOutcome {
                   gate.pass();
                   throw std::runtime_error("pipeline failed");
                 });
    } catch (const std::runtime_error&) {
      leader_threw = true;
    }
  });
  gate.await_entered(1);
  std::thread follow([&] {
    follower.run(table, &cache, metrics,
                 [&](const ExecContext&) { return value; });
  });
  await_followers(table, 1);
  gate.release();
  lead.join();
  follow.join();

  EXPECT_TRUE(leader_threw);
  EXPECT_EQ(follower.how, Resolution::kSolved);
  EXPECT_EQ(follower.out.encoding.codes, value.encoding.codes);
  EXPECT_EQ(counts(metrics), (std::vector<std::uint64_t>{0, 2, 0, 0, 1}));
  expect_table(table, 1, 1, 1);
}

TEST(InFlight, ManyCallersOneSolvePerRound) {
  // Each round starts eight callers on one key against a cold cache: one
  // leads and solves, every other one attaches or, after the insert, hits.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  InFlightTable table;
  MetricsRegistry metrics;
  const SolveOutcome value = encoded({3, 1, 0, 2});
  for (int round = 0; round < kRounds; ++round) {
    SolveCache cache;
    std::atomic<int> solves{0};
    std::atomic<int> ready{0};
    std::vector<SolveOutcome> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        Budget budget;
        const ExecContext ctx{&budget, nullptr, 1, nullptr, &metrics};
        table.resolve(&cache, kKey, ctx,
                      [&](const ExecContext&) {
                        solves.fetch_add(1);
                        return value;
                      },
                      &got[t]);
      });
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(solves.load(), 1) << "round " << round;
    for (const SolveOutcome& g : got)
      EXPECT_EQ(g.encoding.codes, value.encoding.codes) << "round " << round;
  }
  const std::vector<std::uint64_t> c = counts(metrics);
  EXPECT_EQ(c[0] + c[2], static_cast<std::uint64_t>(kRounds * (kThreads - 1)));
  EXPECT_EQ(c[1], static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(c[3], 0u);
  EXPECT_EQ(c[4], static_cast<std::uint64_t>(kRounds));
  expect_table(table, kRounds, c[2], 0);
}

}  // namespace
}  // namespace encodesat
