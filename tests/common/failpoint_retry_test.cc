// Copyright 2026 The Microbrowse Authors
//
// Tests for the fault-injection framework (common/failpoint.h), the retry
// wrapper (common/retry.h) and the thread pool's error propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "common/failpoint.h"
#include "common/retry.h"
#include "common/thread_pool.h"

namespace microbrowse {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DeactivateAll(); }
  void TearDown() override { failpoint::DeactivateAll(); }
};

TEST_F(FailpointTest, InactivePointIsFreeAndReturnsOk) {
  EXPECT_FALSE(failpoint::internal::AnyActive());
  EXPECT_TRUE(failpoint::Check("test.nothing").ok());
  EXPECT_FALSE(failpoint::IsActive("test.nothing"));
}

TEST_F(FailpointTest, AlwaysModeFiresEveryHit) {
  failpoint::Activate("test.always", failpoint::Spec{});
  EXPECT_TRUE(failpoint::internal::AnyActive());
  for (int i = 0; i < 3; ++i) {
    const Status status = failpoint::Check("test.always");
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_NE(status.message().find("test.always"), std::string::npos);
  }
  EXPECT_EQ(failpoint::HitCount("test.always"), 3);
  EXPECT_EQ(failpoint::FireCount("test.always"), 3);
}

TEST_F(FailpointTest, NeverModeOnlyCountsHits) {
  failpoint::Spec spec;
  spec.mode = failpoint::Spec::Mode::kNever;
  failpoint::Activate("test.count", spec);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(failpoint::Check("test.count").ok());
  EXPECT_EQ(failpoint::HitCount("test.count"), 5);
  EXPECT_EQ(failpoint::FireCount("test.count"), 0);
}

TEST_F(FailpointTest, NthModeFiresExactlyOnce) {
  failpoint::Spec spec;
  spec.mode = failpoint::Spec::Mode::kNth;
  spec.nth = 3;
  failpoint::Activate("test.nth", spec);
  EXPECT_TRUE(failpoint::Check("test.nth").ok());
  EXPECT_TRUE(failpoint::Check("test.nth").ok());
  EXPECT_FALSE(failpoint::Check("test.nth").ok());  // 3rd hit fires.
  EXPECT_TRUE(failpoint::Check("test.nth").ok());   // Once only.
  EXPECT_EQ(failpoint::FireCount("test.nth"), 1);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerName) {
  failpoint::Spec spec;
  spec.mode = failpoint::Spec::Mode::kProbability;
  spec.probability = 0.5;
  failpoint::Activate("test.prob", spec);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(failpoint::Check("test.prob").ok());
  // Re-arming resets the deterministic RNG: same sequence again.
  failpoint::Activate("test.prob", spec);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(failpoint::Check("test.prob").ok(), first[i]);
  const int64_t fired = failpoint::FireCount("test.prob");
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST_F(FailpointTest, ParseSpecGrammar) {
  auto always = failpoint::ParseSpec("always");
  ASSERT_TRUE(always.ok());
  EXPECT_EQ(always->mode, failpoint::Spec::Mode::kAlways);

  auto off = failpoint::ParseSpec("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->mode, failpoint::Spec::Mode::kNever);

  auto prob = failpoint::ParseSpec("p:0.25");
  ASSERT_TRUE(prob.ok());
  EXPECT_EQ(prob->mode, failpoint::Spec::Mode::kProbability);
  EXPECT_DOUBLE_EQ(prob->probability, 0.25);

  auto nth = failpoint::ParseSpec("nth:7");
  ASSERT_TRUE(nth.ok());
  EXPECT_EQ(nth->mode, failpoint::Spec::Mode::kNth);
  EXPECT_EQ(nth->nth, 7);

  auto bare_float = failpoint::ParseSpec("0.5");
  ASSERT_TRUE(bare_float.ok());
  EXPECT_EQ(bare_float->mode, failpoint::Spec::Mode::kProbability);

  auto bare_int = failpoint::ParseSpec("4");
  ASSERT_TRUE(bare_int.ok());
  EXPECT_EQ(bare_int->mode, failpoint::Spec::Mode::kNth);

  EXPECT_FALSE(failpoint::ParseSpec("garbage").ok());
  EXPECT_FALSE(failpoint::ParseSpec("p:high").ok());
  EXPECT_FALSE(failpoint::ParseSpec("").ok());

  auto delay = failpoint::ParseSpec("delay:25");
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(delay->mode, failpoint::Spec::Mode::kDelay);
  EXPECT_EQ(delay->delay_ms, 25);
  EXPECT_FALSE(failpoint::ParseSpec("delay:").ok());
  EXPECT_FALSE(failpoint::ParseSpec("delay:-5").ok());
  EXPECT_FALSE(failpoint::ParseSpec("delay:soon").ok());
}

TEST_F(FailpointTest, DelayModeInjectsLatencyNotErrors) {
  failpoint::Spec spec;
  spec.mode = failpoint::Spec::Mode::kDelay;
  spec.delay_ms = 30;
  failpoint::Activate("test.delay", spec);
  const auto start = std::chrono::steady_clock::now();
  // Delay hits return OK — callers proceed, just later. The macro
  // therefore never aborts the guarded function.
  EXPECT_TRUE(failpoint::Check("test.delay").ok());
  EXPECT_TRUE(failpoint::Check("test.delay").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 55);  // Two hits of ~30 ms (scheduler slack).
  EXPECT_EQ(failpoint::FireCount("test.delay"), 2);
}

TEST_F(FailpointTest, ActivateFromListArmsEveryEntry) {
  ASSERT_TRUE(failpoint::ActivateFromList("a.one=always,b.two=nth:2,c.three=off").ok());
  EXPECT_TRUE(failpoint::IsActive("a.one"));
  EXPECT_TRUE(failpoint::IsActive("b.two"));
  EXPECT_TRUE(failpoint::IsActive("c.three"));
  EXPECT_EQ(failpoint::ActiveNames().size(), 3u);
}

TEST_F(FailpointTest, ActivateFromListRejectsMalformedEntries) {
  EXPECT_FALSE(failpoint::ActivateFromList("no_equals_sign").ok());
  EXPECT_FALSE(failpoint::ActivateFromList("x.y=notaspec").ok());
}

Status GuardedByFailpoint() {
  MB_FAILPOINT("test.macro");
  return Status::OK();
}

TEST_F(FailpointTest, MacroPropagatesInjectedError) {
  EXPECT_TRUE(GuardedByFailpoint().ok());
  failpoint::Activate("test.macro", failpoint::Spec{});
  EXPECT_EQ(GuardedByFailpoint().code(), StatusCode::kIOError);
  failpoint::Deactivate("test.macro");
  EXPECT_TRUE(GuardedByFailpoint().ok());
}

// --- Retry with exponential backoff

TEST(RetryTest, IOErrorIsTransientOthersAreNot) {
  EXPECT_TRUE(IsTransient(Status::IOError("disk hiccup")));
  EXPECT_TRUE(IsTransient(Status::Unavailable("server draining")));
  EXPECT_FALSE(IsTransient(Status::InvalidArgument("bad input")));
  EXPECT_FALSE(IsTransient(Status::Internal("bug")));
  EXPECT_FALSE(IsTransient(Status::DeadlineExceeded("budget spent")));
  EXPECT_FALSE(IsTransient(Status::OK()));
}

TEST(RetryTest, BackoffGrowsExponentiallyAndCaps) {
  RetryOptions options;
  options.initial_backoff_ms = 10;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 35;
  EXPECT_EQ(BackoffDelayMs(options, 1), 10);
  EXPECT_EQ(BackoffDelayMs(options, 2), 20);
  EXPECT_EQ(BackoffDelayMs(options, 3), 35);  // Capped.
}

TEST(RetryTest, ZeroJitterKeepsTheDeterministicSchedule) {
  RetryOptions options;
  options.initial_backoff_ms = 10;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 1000;
  // jitter defaults to 0: the artifact-write call sites keep their exact
  // historical backoff schedule.
  for (int retry = 1; retry <= 5; ++retry) {
    EXPECT_EQ(JitteredBackoffDelayMs(options, retry), BackoffDelayMs(options, retry));
  }
}

TEST(RetryTest, FullJitterStaysWithinScheduleAndIsSeedDeterministic) {
  RetryOptions options;
  options.initial_backoff_ms = 100;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 10'000;
  options.jitter = 1.0;
  Rng rng(7);
  options.rng = &rng;
  std::vector<int> first;
  for (int retry = 1; retry <= 8; ++retry) {
    const int delay = JitteredBackoffDelayMs(options, retry);
    EXPECT_GE(delay, 0);
    EXPECT_LE(delay, BackoffDelayMs(options, retry));
    first.push_back(delay);
  }
  // Same seed, same schedule: tests of retrying components stay
  // reproducible by injecting a seeded Rng.
  Rng replay(7);
  options.rng = &replay;
  for (int retry = 1; retry <= 8; ++retry) {
    EXPECT_EQ(JitteredBackoffDelayMs(options, retry), first[retry - 1]);
  }
}

TEST(RetryTest, PartialJitterFloorsTheFixedFraction) {
  RetryOptions options;
  options.initial_backoff_ms = 100;
  options.backoff_multiplier = 1.0;
  options.max_backoff_ms = 100;
  options.jitter = 0.5;  // Half fixed, half uniform: delay in [50, 100].
  Rng rng(11);
  options.rng = &rng;
  for (int retry = 1; retry <= 16; ++retry) {
    const int delay = JitteredBackoffDelayMs(options, retry);
    EXPECT_GE(delay, 50);
    EXPECT_LE(delay, 100);
  }
}

RetryOptions FastRetry(int attempts) {
  RetryOptions options;
  options.max_attempts = attempts;
  options.initial_backoff_ms = 0;
  return options;
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&calls]() {
        ++calls;
        return calls < 3 ? Status::IOError("transient") : Status::OK();
      },
      FastRetry(5));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&calls]() {
        ++calls;
        return Status::IOError("still broken");
      },
      FastRetry(3));
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonTransientFailsImmediately) {
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&calls]() {
        ++calls;
        return Status::InvalidArgument("deterministic");
      },
      FastRetry(5));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, ResultVariantRetries) {
  int calls = 0;
  const Result<int> result = RetryWithBackoff<int>(
      [&calls]() -> Result<int> {
        ++calls;
        if (calls < 2) return Status::IOError("transient");
        return 42;
      },
      FastRetry(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

// --- Thread pool error propagation

TEST(ThreadPoolErrorTest, FailingTaskSurfacesThroughWait) {
  ThreadPool pool(2);
  pool.SubmitFallible([] { return Status::IOError("task failed"); });
  const Status status = pool.Wait();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The failure is cleared: the pool is reusable.
  pool.SubmitFallible([] { return Status::OK(); });
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(ThreadPoolErrorTest, ExceptionBecomesInternalStatusNotAbort) {
  ThreadPool pool(2);
  pool.SubmitFallible([]() -> Status { throw std::runtime_error("boom"); });
  const Status status = pool.Wait();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(ThreadPoolErrorTest, QueuedFallibleTasksDrainAfterFailure) {
  // One worker: the failing task is guaranteed to run before the queued
  // ones, which must then be skipped.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.SubmitFallible([] { return Status::IOError("first fails"); });
  for (int i = 0; i < 8; ++i) {
    pool.SubmitFallible([&ran] {
      ++ran;
      return Status::OK();
    });
  }
  EXPECT_EQ(pool.Wait().code(), StatusCode::kIOError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolErrorTest, ParallelForFalliblePropagatesFirstFailure) {
  ThreadPool pool(4);
  const Status status = pool.ParallelForFallible(64, [](size_t i) {
    return i == 17 ? Status::InvalidArgument("index 17") : Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolErrorTest, TaskFailpointInjectsIntoPool) {
  failpoint::DeactivateAll();
  failpoint::Spec spec;
  spec.mode = failpoint::Spec::Mode::kNth;
  spec.nth = 2;
  failpoint::Activate("threadpool.task", spec);
  ThreadPool pool(1);
  const Status status = pool.ParallelForFallible(4, [](size_t) { return Status::OK(); });
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  failpoint::DeactivateAll();
}

}  // namespace
}  // namespace microbrowse
