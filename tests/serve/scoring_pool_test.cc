// Copyright 2026 The Microbrowse Authors
//
// Scoring pool tests (DESIGN.md §17): exactly-once dispatch, the max_queue
// admission bound, Stop's drain-everything invariant and the FIFO order in
// which a free worker claims waiting tasks.

#include "serve/scoring_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/histogram.h"

namespace microbrowse {
namespace serve {
namespace {

/// Polls `done` for up to five seconds. Returns false on timeout.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(ScoringPoolTest, EveryTaskIsHandledExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> handled(kTasks);
  std::atomic<int> total{0};
  ScoringPool::Options options;
  options.num_workers = 4;
  ScoringPool pool(options, [&](std::vector<ScoringTask>& batch) {
    for (const ScoringTask& task : batch) {
      handled[std::stoi(task.line)].fetch_add(1);
      total.fetch_add(1);
    }
  });
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit(nullptr, std::to_string(i), Deadline::Infinite(),
                            static_cast<uint64_t>(i)));
  }
  ASSERT_TRUE(WaitFor([&] { return total.load() == kTasks; }));
  pool.Stop();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(handled[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ScoringPoolTest, RefusesBeyondMaxQueueAndRecovers) {
  std::atomic<bool> gate{true};
  std::atomic<int> entered{0};
  std::atomic<int> total{0};
  ScoringPool::Options options;
  options.num_workers = 1;
  options.max_queue = 8;
  ScoringPool pool(options, [&](std::vector<ScoringTask>& batch) {
    entered.fetch_add(1);
    while (gate.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    total.fetch_add(static_cast<int>(batch.size()));
  });
  // Occupy the single worker, then wait until its task has left the queue.
  ASSERT_TRUE(pool.Submit(nullptr, "hold", Deadline::Infinite(), 0));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1 && pool.queued() == 0; }));
  // Admission is a global bound across all deques: exactly max_queue more.
  for (size_t i = 0; i < options.max_queue; ++i) {
    EXPECT_TRUE(pool.Submit(nullptr, "q", Deadline::Infinite(), i + 1)) << i;
  }
  EXPECT_EQ(pool.queued(), options.max_queue);
  EXPECT_FALSE(pool.Submit(nullptr, "shed", Deadline::Infinite(), 99));
  // Releasing the worker drains the backlog and re-opens admission.
  gate.store(false);
  ASSERT_TRUE(WaitFor([&] {
    return total.load() == static_cast<int>(options.max_queue) + 1;
  }));
  EXPECT_TRUE(pool.Submit(nullptr, "after", Deadline::Infinite(), 100));
  ASSERT_TRUE(WaitFor([&] { return total.load() == static_cast<int>(options.max_queue) + 2; }));
  pool.Stop();
}

TEST(ScoringPoolTest, StopDrainsEveryAdmittedTask) {
  // The drain accounting invariant: whatever was admitted is handled, even
  // when Stop arrives while the backlog is deep. (Chaos soak relies on
  // every admitted request producing exactly one response.)
  constexpr int kTasks = 50;
  std::vector<std::atomic<int>> handled(kTasks);
  ScoringPool::Options options;
  options.num_workers = 2;
  ScoringPool pool(options, [&](std::vector<ScoringTask>& batch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const ScoringTask& task : batch) handled[std::stoi(task.line)].fetch_add(1);
  });
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit(nullptr, std::to_string(i), Deadline::Infinite(),
                            static_cast<uint64_t>(i)));
  }
  pool.Stop();  // Must not return before the backlog is fully handled.
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(handled[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(pool.queued(), 0u);
  // A stopped pool refuses new work.
  EXPECT_FALSE(pool.Submit(nullptr, "late", Deadline::Infinite(), 1000));
}

TEST(ScoringPoolTest, FreeWorkerClaimsTheOldestWaitingTaskFirst) {
  // Both workers are held in gated tasks while ten more queue up; the one
  // released must then handle the waiting tasks oldest first, claiming its
  // share of the queue each time: ceil(10/2), ceil(5/2), ceil(2/2), 1.
  std::atomic<bool> release[2] = {false, false};
  std::atomic<int> entered{0};
  std::mutex order_mu;
  std::vector<int> order;
  std::vector<size_t> claims;
  ShardedHistogram batch_size;
  ScoringPool::Options options;
  options.num_workers = 2;
  options.batch_size = &batch_size;
  ScoringPool pool(options, [&](std::vector<ScoringTask>& batch) {
    if (batch[0].line[0] != 'h') {
      std::lock_guard<std::mutex> lock(order_mu);
      claims.push_back(batch.size());
    }
    for (const ScoringTask& task : batch) {
      if (task.line == "hold0" || task.line == "hold1") {
        entered.fetch_add(1);
        while (!release[task.line[4] - '0'].load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        continue;
      }
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(std::stoi(task.line));
    }
  });
  ASSERT_TRUE(pool.Submit(nullptr, "hold0", Deadline::Infinite(), 0));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1 && pool.queued() == 0; }));
  ASSERT_TRUE(pool.Submit(nullptr, "hold1", Deadline::Infinite(), 1));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 2 && pool.queued() == 0; }));
  constexpr int kTasks = 10;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit(nullptr, std::to_string(i), Deadline::Infinite(),
                            static_cast<uint64_t>(i + 2)));
  }
  release[0].store(true);
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == kTasks;
  }));
  release[1].store(true);
  pool.Stop();
  std::vector<int> expected(kTasks);
  for (int i = 0; i < kTasks; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
  EXPECT_EQ(claims, (std::vector<size_t>{5, 3, 1, 1}));
  EXPECT_EQ(batch_size.Count(), 6);  // The two held tasks and four claims.
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
