// Copyright 2026 The Microbrowse Authors
//
// Deadline semantics: monotonic, immune to wall-clock steps, with the
// already-expired and infinite edge cases the serve path leans on.

#include "common/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace microbrowse {
namespace {

TEST(DeadlineTest, DefaultAndInfiniteNeverExpire) {
  const Deadline default_constructed;
  EXPECT_TRUE(default_constructed.infinite());
  EXPECT_FALSE(default_constructed.expired());
  EXPECT_EQ(default_constructed.remaining_millis(), INT64_MAX);

  const Deadline infinite = Deadline::Infinite();
  EXPECT_TRUE(infinite.infinite());
  EXPECT_FALSE(infinite.expired());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).expired());
  EXPECT_EQ(Deadline::AfterMillis(0).remaining_millis(), 0);
  EXPECT_FALSE(Deadline::AfterMillis(0).infinite());
}

TEST(DeadlineTest, UnrepresentableBudgetSaturatesToInfinite) {
  // steady_clock counts int64 nanoseconds, so ~9.2e12 ms is past its range
  // however the budget is converted.
  for (const int64_t ms : {INT64_MAX, int64_t{20'000'000'000'000}}) {
    const Deadline deadline = Deadline::AfterMillis(ms);
    EXPECT_TRUE(deadline.infinite()) << ms;
    EXPECT_FALSE(deadline.expired()) << ms;
    EXPECT_EQ(deadline.remaining_millis(), INT64_MAX) << ms;
  }
  // A budget of decades is still representable and stays finite.
  const Deadline decades = Deadline::AfterMillis(1'000'000'000'000);
  EXPECT_FALSE(decades.infinite());
  EXPECT_FALSE(decades.expired());
  EXPECT_GT(decades.remaining_millis(), 999'000'000'000);
  // The most negative budget is expired, not wrapped into the future.
  const Deadline spent = Deadline::AfterMillis(INT64_MIN);
  EXPECT_TRUE(spent.expired());
  EXPECT_EQ(spent.remaining_millis(), 0);
}

TEST(DeadlineTest, FutureDeadlineCountsDownAndExpires) {
  const Deadline deadline = Deadline::AfterMillis(40);
  EXPECT_FALSE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
  const int64_t remaining = deadline.remaining_millis();
  EXPECT_GT(remaining, 0);
  EXPECT_LE(remaining, 40);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_millis(), 0);
}

TEST(DeadlineTest, RemainingNeverGoesNegative) {
  const Deadline deadline = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(deadline.remaining_millis(), 0);
}

TEST(DeadlineTest, EarlierPicksTheSoonerDeadline) {
  const Deadline infinite = Deadline::Infinite();
  const Deadline near = Deadline::AfterMillis(50);
  const Deadline far = Deadline::AfterMillis(60'000);

  EXPECT_FALSE(Deadline::Earlier(infinite, near).infinite());
  EXPECT_FALSE(Deadline::Earlier(near, infinite).infinite());
  EXPECT_TRUE(Deadline::Earlier(infinite, infinite).infinite());

  const Deadline sooner = Deadline::Earlier(near, far);
  EXPECT_LE(sooner.remaining_millis(), 50);
}

}  // namespace
}  // namespace microbrowse
