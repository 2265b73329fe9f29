// Copyright 2026 The Microbrowse Authors
//
// Unit tests for the reactor's zero-copy line-framing buffer and the
// buffer pool that recycles its storage across connections.

#include "serve/conn_buffer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace microbrowse {
namespace serve {
namespace {

/// Simulates the kernel writing `bytes` into the buffer tail.
void Feed(ConnBuffer& buffer, std::string_view bytes) {
  char* tail = buffer.ReserveTail(bytes.size());
  std::memcpy(tail, bytes.data(), bytes.size());
  buffer.CommitTail(bytes.size());
}

TEST(ConnBufferTest, FramesCompleteLinesAndStripsTerminators) {
  ConnBuffer buffer(1024);
  Feed(buffer, "alpha\nbeta\r\ngamma");
  std::string_view line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "beta");  // The \r before the \n is stripped too.
  EXPECT_FALSE(buffer.NextLine(&line));  // "gamma" has no newline yet.
  EXPECT_EQ(buffer.pending_bytes(), 5u);
  Feed(buffer, "\n");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "gamma");
  EXPECT_EQ(buffer.pending_bytes(), 0u);
}

TEST(ConnBufferTest, LineSplitAcrossManyCommitsReassembles) {
  ConnBuffer buffer(1024);
  const std::string expected = "a somewhat longer request line";
  for (char c : expected) Feed(buffer, std::string_view(&c, 1));
  std::string_view line;
  EXPECT_FALSE(buffer.NextLine(&line));
  Feed(buffer, "\n");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, expected);
}

TEST(ConnBufferTest, EmptyLinesAreReturnedEmpty) {
  ConnBuffer buffer(1024);
  Feed(buffer, "\n\r\nx\n");
  std::string_view line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "x");
}

TEST(ConnBufferTest, OverlongPartialLineFlipsPermanently) {
  ConnBuffer buffer(16);
  Feed(buffer, std::string(17, 'a'));  // 17 bytes, no newline.
  EXPECT_TRUE(buffer.overlong());
  // Even a newline arriving later does not un-flip it — the connection is
  // already condemned and the caller must not serve the oversized line.
  Feed(buffer, "\n");
  EXPECT_TRUE(buffer.overlong());
}

TEST(ConnBufferTest, ConsumedLinesDoNotCountTowardTheLineBound) {
  ConnBuffer buffer(16);
  std::string_view line;
  // Many short lines through a small-bound buffer: consumed bytes must not
  // accumulate into a spurious overlong verdict.
  for (int i = 0; i < 100; ++i) {
    Feed(buffer, "0123456789\n");
    ASSERT_TRUE(buffer.NextLine(&line));
    EXPECT_EQ(line, "0123456789");
  }
  EXPECT_FALSE(buffer.overlong());
}

TEST(ConnBufferTest, CompleteLinesNotYetFramedDoNotCountTowardTheLineBound) {
  ConnBuffer buffer(16);
  // A reader may buffer several reads before framing any line: only the
  // trailing partial line is held to the bound.
  for (int i = 0; i < 10; ++i) Feed(buffer, "0123456789\n");
  Feed(buffer, "0123456789abcdef");  // 16 bytes pending: at the bound.
  EXPECT_FALSE(buffer.overlong());
  std::string_view line;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buffer.NextLine(&line));
    EXPECT_EQ(line, "0123456789");
  }
  EXPECT_FALSE(buffer.NextLine(&line));
  Feed(buffer, "g");  // 17 bytes without a newline: past it.
  EXPECT_TRUE(buffer.overlong());
}

TEST(ConnBufferTest, TotalBytesCountsEverythingEverCommitted) {
  ConnBuffer buffer(1024);
  EXPECT_EQ(buffer.total_bytes(), 0u);
  Feed(buffer, "abc\n");
  Feed(buffer, "de");
  EXPECT_EQ(buffer.total_bytes(), 6u);
  std::string_view line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(buffer.total_bytes(), 6u);  // Consumption does not change it.
}

TEST(BufferPoolTest, ReleasedStorageIsReused) {
  BufferPool pool;
  EXPECT_EQ(pool.pooled(), 0u);
  {
    ConnBuffer buffer(1024, &pool);
    Feed(buffer, "hello\n");
  }
  EXPECT_EQ(pool.pooled(), 1u);
  {
    ConnBuffer buffer(1024, &pool);
    EXPECT_EQ(pool.pooled(), 0u);  // Acquired the pooled storage.
    std::string_view line;
    Feed(buffer, "world\n");
    ASSERT_TRUE(buffer.NextLine(&line));
    EXPECT_EQ(line, "world");  // No leftover bytes from the prior owner.
  }
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(BufferPoolTest, ReusedStorageCarriesNoStaleFragments) {
  // A connection that dies mid-line leaves unconsumed bytes in its buffer.
  // The next connection acquiring that storage must start empty: no
  // pending bytes, no overlong verdict, and its first line must be exactly
  // what it received — never a splice with the previous owner's fragment.
  BufferPool pool;
  {
    ConnBuffer buffer(1024, &pool);
    Feed(buffer, "half-finished request with no newline");
    EXPECT_GT(buffer.pending_bytes(), 0u);
  }  // Dies with the fragment still buffered.
  ASSERT_EQ(pool.pooled(), 1u);
  {
    ConnBuffer buffer(1024, &pool);
    EXPECT_EQ(buffer.pending_bytes(), 0u);
    EXPECT_EQ(buffer.total_bytes(), 0u);
    EXPECT_FALSE(buffer.overlong());
    Feed(buffer, "fresh\n");
    std::string_view line;
    ASSERT_TRUE(buffer.NextLine(&line));
    EXPECT_EQ(line, "fresh");
    EXPECT_FALSE(buffer.NextLine(&line)) << "stale fragment resurfaced: " << line;
  }
}

TEST(BufferPoolTest, OverlongVerdictDoesNotFollowTheStorage) {
  // The overlong flag condemns a connection, not the recycled storage.
  BufferPool pool;
  {
    ConnBuffer buffer(8, &pool);
    Feed(buffer, std::string(64, 'a'));
    EXPECT_TRUE(buffer.overlong());
  }
  ConnBuffer buffer(8, &pool);
  EXPECT_FALSE(buffer.overlong());
  Feed(buffer, "ok\n");
  std::string_view line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "ok");
}

TEST(BufferPoolTest, ChurnReachesSteadyStateReuse) {
  // Connection churn: after the first cycle the pool supplies every
  // subsequent buffer, so steady-state accepts allocate nothing.
  BufferPool pool;
  for (int i = 0; i < 100; ++i) {
    ConnBuffer buffer(1024, &pool);
    EXPECT_EQ(pool.pooled(), 0u) << "cycle " << i;  // Always reacquired.
    Feed(buffer, "req-" + std::to_string(i) + "\n");
    std::string_view line;
    ASSERT_TRUE(buffer.NextLine(&line));
    EXPECT_EQ(line, "req-" + std::to_string(i));
  }
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(BufferPoolTest, PoolRetentionIsBounded) {
  // More concurrent buffers than kMaxPooled: the overflow is freed, not
  // hoarded.
  BufferPool pool;
  {
    std::vector<std::unique_ptr<ConnBuffer>> buffers;
    for (size_t i = 0; i < BufferPool::kMaxPooled + 32; ++i) {
      buffers.push_back(std::make_unique<ConnBuffer>(1024, &pool));
      Feed(*buffers.back(), "x\n");
    }
  }
  EXPECT_EQ(pool.pooled(), BufferPool::kMaxPooled);
}

TEST(BufferPoolTest, OversizedBuffersAreDroppedNotPooled) {
  BufferPool pool;
  {
    ConnBuffer buffer(4 << 20, &pool);
    // Grow the storage past the pool's retention cap.
    Feed(buffer, std::string(BufferPool::kMaxPooledCapacity + 1, 'x'));
  }
  EXPECT_EQ(pool.pooled(), 0u) << "one huge request permanently inflated the pool";
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
