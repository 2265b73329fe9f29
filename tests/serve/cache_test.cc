// Copyright 2026 The Microbrowse Authors
//
// Serving-infrastructure container tests: the sharded LRU result cache and
// the lock-free latency histogram behind /statsz quantiles.

#include "serve/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/histogram.h"

namespace microbrowse {
namespace serve {
namespace {

/// A counted lookup, as the service makes one: Peek, then Count the outcome.
std::optional<double> Lookup(ShardedLruCache<double>& cache, uint64_t key) {
  std::optional<double> value = cache.Peek(key);
  cache.Count(key, value.has_value());
  return value;
}

// Keys whose high 16 bits are zero all land in shard 0, making LRU order
// across them exact and deterministic regardless of the shard count.
constexpr uint64_t SameShardKey(uint64_t n) { return n; }

TEST(ShardedLruCacheTest, GetMissThenHit) {
  ShardedLruCache<double> cache(/*capacity=*/8, /*num_shards=*/1);
  EXPECT_FALSE(Lookup(cache, 1).has_value());
  cache.Put(1, 0.5);
  auto value = Lookup(cache, 1);
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(*value, 0.5);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.size, 1);
}

TEST(ShardedLruCacheTest, PutRefreshesExistingKey) {
  ShardedLruCache<double> cache(/*capacity=*/8, /*num_shards=*/1);
  cache.Put(1, 0.5);
  cache.Put(1, 0.75);
  auto value = Lookup(cache, 1);
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(*value, 0.75);
  EXPECT_EQ(cache.Stats().size, 1);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  ShardedLruCache<double> cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put(SameShardKey(1), 1.0);
  cache.Put(SameShardKey(2), 2.0);
  cache.Put(SameShardKey(3), 3.0);
  // Touch 1 so 2 becomes the LRU entry.
  EXPECT_TRUE(Lookup(cache, SameShardKey(1)).has_value());
  cache.Put(SameShardKey(4), 4.0);
  EXPECT_FALSE(Lookup(cache, SameShardKey(2)).has_value());
  EXPECT_TRUE(Lookup(cache, SameShardKey(1)).has_value());
  EXPECT_TRUE(Lookup(cache, SameShardKey(3)).has_value());
  EXPECT_TRUE(Lookup(cache, SameShardKey(4)).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1);
}

TEST(ShardedLruCacheTest, ClearDropsEntriesButKeepsCounters) {
  ShardedLruCache<double> cache(/*capacity=*/8, /*num_shards=*/4);
  cache.Put(1, 1.0);
  cache.Put(uint64_t{5} << 48, 2.0);  // A different shard.
  EXPECT_TRUE(Lookup(cache, 1).has_value());
  cache.Clear();
  EXPECT_FALSE(Lookup(cache, 1).has_value());
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, 0);
  EXPECT_EQ(stats.hits, 1);  // Counters survive the flush.
}

TEST(ShardedLruCacheTest, ZeroCapacityDisables) {
  ShardedLruCache<double> cache(/*capacity=*/0);
  EXPECT_FALSE(cache.enabled());
  cache.Put(1, 1.0);
  EXPECT_FALSE(Lookup(cache, 1).has_value());
  EXPECT_EQ(cache.Stats().size, 0);
}

TEST(ShardedLruCacheTest, SmallCapacityNotInflatedByShardCount) {
  // The shard count clamps to the capacity: a budget of 1 with the
  // default 8 shards must behave as a one-entry cache, not silently grow
  // to one entry per shard.
  ShardedLruCache<double> tiny(/*capacity=*/1, /*num_shards=*/8);
  tiny.Put(uint64_t{0} << 48, 0.0);
  tiny.Put(uint64_t{5} << 48, 5.0);  // Would be another shard pre-clamp.
  EXPECT_EQ(tiny.Stats().size, 1);
  EXPECT_FALSE(Lookup(tiny, uint64_t{0} << 48).has_value());
  EXPECT_TRUE(Lookup(tiny, uint64_t{5} << 48).has_value());

  // capacity=12 across 8 shards rounds the slice up (2 per shard): 12
  // hot entries fit even when they spread across every shard.
  ShardedLruCache<double> cache(/*capacity=*/12, /*num_shards=*/8);
  for (uint64_t i = 0; i < 12; ++i) {
    cache.Put((i % 8) << 48 | i, static_cast<double>(i));
  }
  EXPECT_EQ(cache.Stats().evictions, 0);
  EXPECT_EQ(cache.Stats().size, 12);
}

TEST(ShardedLruCacheTest, NonPowerOfTwoShardCountRoundsDown) {
  // 7 shards rounds down to 4; capacity splits across them without losing
  // entries to out-of-range shards.
  ShardedLruCache<double> cache(/*capacity=*/64, /*num_shards=*/7);
  for (uint64_t i = 0; i < 16; ++i) cache.Put(i << 48 | i, static_cast<double>(i));
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(Lookup(cache, i << 48 | i).has_value()) << i;
  }
}

TEST(ShardedLruCacheTest, ConcurrentPutGetIsSafe) {
  ShardedLruCache<double> cache(/*capacity=*/256, /*num_shards=*/8);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&cache, w] {
      for (uint64_t i = 0; i < 2000; ++i) {
        const uint64_t key = (i % 64) << 48 | (i + static_cast<uint64_t>(w));
        cache.Put(key, static_cast<double>(i));
        if (auto value = Lookup(cache, key)) {
          // A concurrent refresh may have replaced the value, but it must
          // always be one some thread wrote for this key's i.
          EXPECT_GE(*value, 0.0);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const CacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
}

// --- Generation churn -------------------------------------------------
// The service embeds the bundle generation in every cache key and flushes
// on hot reload. These tests cover that lifecycle at the cache layer:
// stale generations can never be served, and Clear racing live traffic is
// safe and leaves a consistent, working cache.

/// A generation-tagged key the way the service builds them: the same
/// payload hash under a new generation is a different key.
constexpr uint64_t GenKey(uint64_t generation, uint64_t payload) {
  return (generation << 32) ^ payload;
}

TEST(ShardedLruCacheTest, GenerationChurnNeverServesStaleValues) {
  ShardedLruCache<double> cache(/*capacity=*/64, /*num_shards=*/4);
  for (uint64_t payload = 0; payload < 16; ++payload) {
    cache.Put(GenKey(1, payload), 100.0 + static_cast<double>(payload));
  }
  // Hot reload: generation 1 dies, the cache is flushed eagerly.
  cache.Clear();
  for (uint64_t payload = 0; payload < 16; ++payload) {
    cache.Put(GenKey(2, payload), 200.0 + static_cast<double>(payload));
  }
  for (uint64_t payload = 0; payload < 16; ++payload) {
    EXPECT_FALSE(Lookup(cache, GenKey(1, payload)).has_value())
        << "stale generation-1 entry survived the flush, payload " << payload;
    auto value = Lookup(cache, GenKey(2, payload));
    ASSERT_TRUE(value.has_value()) << payload;
    EXPECT_DOUBLE_EQ(*value, 200.0 + static_cast<double>(payload));
  }
}

TEST(ShardedLruCacheTest, RepeatedChurnKeepsSizeBounded) {
  // Ten reload cycles: each generation fills the cache, then dies. Size
  // must track only the live generation; counters accumulate across all.
  ShardedLruCache<double> cache(/*capacity=*/32, /*num_shards=*/4);
  for (uint64_t generation = 1; generation <= 10; ++generation) {
    cache.Clear();
    for (uint64_t payload = 0; payload < 24; ++payload) {
      cache.Put(GenKey(generation, payload), static_cast<double>(generation));
    }
    EXPECT_LE(cache.Stats().size, 32) << "generation " << generation;
    auto value = Lookup(cache, GenKey(generation, 0));
    if (value.has_value()) {
      EXPECT_DOUBLE_EQ(*value, static_cast<double>(generation));
    }
  }
  EXPECT_GT(cache.Stats().hits + cache.Stats().misses, 0);
}

TEST(ShardedLruCacheTest, ClearRacingTrafficIsSafeAndNeverCrossesGenerations) {
  // Reader/writer threads cycle through generations while a churn thread
  // flushes repeatedly (the reload race). Any value read must equal the
  // value written for that exact generation-tagged key — a flush may lose
  // entries, but it must never surface a wrong or torn one.
  ShardedLruCache<double> cache(/*capacity=*/256, /*num_shards=*/8);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&cache, &stop, &violations, w] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        const uint64_t generation = i % 5;
        const uint64_t payload = (i + static_cast<uint64_t>(w)) % 64;
        const uint64_t key = GenKey(generation, payload);
        const double expected =
            static_cast<double>(generation) * 1000.0 + static_cast<double>(payload);
        cache.Put(key, expected);
        if (auto value = Lookup(cache, key)) {
          if (*value != expected) violations.fetch_add(1);
        }
      }
    });
  }
  std::thread churner([&cache, &stop] {
    for (int i = 0; i < 200; ++i) {
      cache.Clear();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });
  churner.join();
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(violations.load(), 0);
  // The cache still works after the churn storm.
  cache.Put(GenKey(99, 1), 42.0);
  auto value = Lookup(cache, GenKey(99, 1));
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(*value, 42.0);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram histogram;
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0);
  EXPECT_DOUBLE_EQ(snapshot.p50, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 0.0);
}

TEST(HistogramTest, QuantilesAreOrderedAndBracketed) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i * 1e-5);  // 10us..10ms.
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1000);
  EXPECT_DOUBLE_EQ(snapshot.min, 1e-5);
  EXPECT_DOUBLE_EQ(snapshot.max, 1e-2);
  EXPECT_LE(snapshot.p50, snapshot.p95);
  EXPECT_LE(snapshot.p95, snapshot.p99);
  // Log-bucketed quantiles are approximate; 30% tolerance is far tighter
  // than the 1.15 bucket growth compounds to over the range.
  EXPECT_NEAR(snapshot.p50, 5e-3, 5e-3 * 0.3);
  EXPECT_GE(snapshot.p99, snapshot.p50);
  EXPECT_LE(snapshot.p99, snapshot.max * 1.2);
}

TEST(HistogramTest, ResetClears) {
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Reset();
  EXPECT_EQ(histogram.Snapshot().count, 0);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram histogram;
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&histogram] {
      for (int i = 0; i < 10000; ++i) histogram.Record(1e-4);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(histogram.Snapshot().count, 80000);
}

TEST(HistogramTest, AllNegativeSamplesReportNegativeMax) {
  Histogram histogram;
  histogram.Record(-5.0);
  histogram.Record(-2.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  // A 0.0-seeded max never drops below zero, so all-negative samples used
  // to report max = 0; the -infinity seed lets the true extrema through.
  EXPECT_DOUBLE_EQ(snapshot.min, -5.0);
  EXPECT_DOUBLE_EQ(snapshot.max, -2.0);

  // Reset restores the sentinel seeds, not 0.0.
  histogram.Reset();
  histogram.Record(-1.0);
  EXPECT_DOUBLE_EQ(histogram.Snapshot().max, -1.0);
}

TEST(HistogramTest, ConcurrentExtremaAreExact) {
  Histogram histogram;
  // Every recorded value lies in [1.0, 2.0); one thread also records the
  // exact global minimum (1.0) and maximum (2.5) mid-flight. Min/max must
  // come out exact — no first-sample race may leave the 0-value seed (or a
  // losing CAS) in either extremum.
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&histogram, w] {
      for (int i = 0; i < 5000; ++i) {
        histogram.Record(1.0 + static_cast<double>((w * 5000 + i) % 997) / 997.0);
      }
    });
  }
  workers.emplace_back([&histogram] {
    histogram.Record(1.0);
    histogram.Record(2.5);
  });
  for (std::thread& worker : workers) worker.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 8 * 5000 + 2);
  EXPECT_DOUBLE_EQ(snapshot.min, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 2.5);
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
