// Budget / StageStats / thread-pool unit tests (util/exec.h,
// util/thread_pool.h): deterministic work accounting, deadline and
// cancellation trips, the first-trip-wins contract, JSON emission, and the
// parallel_for coverage/exception/ordering guarantees the pipeline's
// deterministic fan-out relies on.
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/exec.h"
#include "util/thread_pool.h"

namespace encodesat {
namespace {

TEST(Budget, UnlimitedByDefault) {
  Budget b;
  EXPECT_TRUE(b.charge(1'000'000));
  EXPECT_TRUE(b.poll());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.reason(), Truncation::kNone);
  EXPECT_EQ(b.work_used(), 1'000'000u);
}

TEST(Budget, WorkLimitTripsAtTheSameCharge) {
  // The trip point is a function of the charge sequence only.
  for (int run = 0; run < 3; ++run) {
    Budget b;
    b.set_work_limit(100);
    int charges = 0;
    while (b.charge(7)) ++charges;
    EXPECT_EQ(charges, 14);  // 15 * 7 = 105 > 100 trips on the 15th
    EXPECT_EQ(b.reason(), Truncation::kWorkBudget);
    EXPECT_FALSE(b.poll());
  }
}

TEST(Budget, ExpiredDeadlineTripsOnPoll) {
  Budget b;
  b.set_deadline_after(-1.0);
  EXPECT_FALSE(b.poll());
  EXPECT_EQ(b.reason(), Truncation::kDeadline);
}

TEST(Budget, DeadlineNotReachedHolds) {
  Budget b;
  b.set_deadline_after(3600.0);
  EXPECT_TRUE(b.poll());
  EXPECT_FALSE(b.exhausted());
}

TEST(Budget, CancelTokenTripsOnPoll) {
  CancelToken token;
  Budget b;
  b.set_cancel_token(&token);
  EXPECT_TRUE(b.poll());
  token.cancel();
  EXPECT_FALSE(b.poll());
  EXPECT_EQ(b.reason(), Truncation::kCancelled);
}

TEST(Budget, FirstTripWins) {
  Budget b;
  b.trip(Truncation::kTermLimit);
  b.trip(Truncation::kDeadline);
  EXPECT_EQ(b.reason(), Truncation::kTermLimit);
}

TEST(Budget, ConcurrentChargesAccumulateExactly) {
  Budget b;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&b] {
      for (int i = 0; i < 10'000; ++i) b.charge(3);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(b.work_used(), 4u * 10'000u * 3u);
}

TEST(TruncationName, StableNames) {
  EXPECT_STREQ(truncation_name(Truncation::kNone), "none");
  EXPECT_STREQ(truncation_name(Truncation::kDeadline), "deadline");
  EXPECT_STREQ(truncation_name(Truncation::kWorkBudget), "work_budget");
  EXPECT_STREQ(truncation_name(Truncation::kTermLimit), "term_limit");
  EXPECT_STREQ(truncation_name(Truncation::kNodeLimit), "node_limit");
  EXPECT_STREQ(truncation_name(Truncation::kCancelled), "cancelled");
  for (const Truncation t :
       {Truncation::kNone, Truncation::kDeadline, Truncation::kWorkBudget,
        Truncation::kTermLimit, Truncation::kNodeLimit,
        Truncation::kCancelled}) {
    Truncation back = Truncation::kNone;
    ASSERT_TRUE(truncation_from_name(truncation_name(t), &back));
    EXPECT_EQ(back, t);
  }
  EXPECT_FALSE(truncation_from_name("unknown", nullptr));
}

TEST(StageStats, TreeAndFind) {
  StageStats root("solve");
  StageStats* a = root.add_child("prime_generation");
  a->items = 7;
  root.add_child("unate_cover");
  ASSERT_NE(root.find("prime_generation"), nullptr);
  EXPECT_EQ(root.find("prime_generation")->items, 7u);
  ASSERT_NE(root.find("unate_cover"), nullptr);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(StageStats, ChildPointersStableAcrossGrowth) {
  // add_child returns borrowed pointers that stage code holds across later
  // sibling insertions (deque-backed children). A vector would invalidate
  // them on reallocation — this pins the container choice.
  StageStats root("solve");
  std::vector<StageStats*> children;
  for (int i = 0; i < 1000; ++i) {
    StageStats* c = root.add_child("stage_" + std::to_string(i));
    c->items = static_cast<std::uint64_t>(i);
    children.push_back(c);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(children[static_cast<std::size_t>(i)]->name,
              "stage_" + std::to_string(i));
    EXPECT_EQ(children[static_cast<std::size_t>(i)]->items,
              static_cast<std::uint64_t>(i));
  }
}

TEST(StageStats, JsonShape) {
  StageStats root("solve");
  root.work = 42;
  StageStats* child = root.add_child("raise");
  child->truncation = Truncation::kDeadline;
  const std::string json = root.to_json();
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"work\":42"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"raise\""), std::string::npos);
  EXPECT_NE(json.find("\"truncation\":\"deadline\""), std::string::npos);
}

TEST(StageStats, JsonEscapesStrings) {
  StageStats s("we\"ird\\name");
  const std::string json = s.to_json();
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(StageScope, RecordsElapsedAndNests) {
  StageStats root("solve");
  Budget budget;
  const ExecContext ctx{&budget, &root, 1};
  {
    StageScope outer(ctx, "outer");
    StageScope inner(outer.ctx(), "inner");
    inner.add_items(3);
  }
  const StageStats* outer = root.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_GE(outer->elapsed_seconds, 0.0);
  const StageStats* inner = root.find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->items, 3u);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].name, "inner");
}

TEST(StageScope, NullContextIsANoop) {
  StageScope scope(ExecContext{}, "anything");
  EXPECT_EQ(scope.stats(), nullptr);
  scope.add_work(5);
  scope.add_items(5);
  scope.set_truncation(Truncation::kDeadline);
  EXPECT_TRUE(scope.ctx().poll());
}

TEST(ExecContext, DefaultIsUnlimited) {
  const ExecContext ctx;
  EXPECT_FALSE(ctx.exhausted());
  EXPECT_TRUE(ctx.poll());
  EXPECT_TRUE(ctx.charge(1'000'000));
  EXPECT_EQ(ctx.reason(), Truncation::kNone);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);   // <= 0 = all hardware threads
  EXPECT_GE(resolve_threads(-5), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SequentialFallbackRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(100, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SlotFillsMatchSequential) {
  // The pipeline's determinism pattern: each task writes only slot i, so
  // the merged result is independent of the thread count.
  const std::size_t n = 5'000;
  std::vector<std::uint64_t> seq(n), par(n);
  auto value = [](std::size_t i) {
    return std::uint64_t{i} * 2654435761u + 17;
  };
  parallel_for(n, 1, [&](std::size_t i) { seq[i] = value(i); });
  parallel_for(n, 8, [&](std::size_t i) { par[i] = value(i); });
  EXPECT_EQ(seq, par);
}

TEST(ThreadPool, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(100, 4,
                            [&](std::size_t i) {
                              if (i == 42)
                                throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  bool ran = false;
  parallel_for(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace encodesat
