// Copyright 2026 The Microbrowse Authors
//
// A sharded LRU cache for the serving hot path. Keys are pre-hashed
// 64-bit content hashes (the caller hashes snippet text, see
// service.cc); the high bits pick the shard, so lock contention scales
// down with the shard count while each shard keeps exact LRU order.
//
// Values are returned by copy — entries are small (a double score, a
// shared_ptr) and copying under the shard lock keeps the API race-free
// without handing out references into a structure another thread may
// evict from.

#ifndef MICROBROWSE_SERVE_LRU_CACHE_H_
#define MICROBROWSE_SERVE_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace microbrowse {
namespace serve {

/// Cache hit/miss counters (monotonic; read via statsz).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t size = 0;

  double hit_rate() const {
    const int64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

template <typename Value>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split across `num_shards`. The
  /// shard count is clamped to `capacity` and the per-shard slice rounds
  /// up, so the cache always admits at least `capacity` entries before
  /// evicting and never holds more than one extra entry per shard. A
  /// capacity of 0 disables the cache: Peek always misses, Count and Put are
  /// no-ops.
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8) {
    if (num_shards == 0) num_shards = 1;
    // More shards than entries would inflate the budget through the
    // one-slot-per-shard minimum; small caches get fewer shards instead.
    if (capacity > 0 && num_shards > capacity) num_shards = capacity;
    // Shard count rounded down to a power of two so shard selection is a
    // mask, not a modulo.
    while ((num_shards & (num_shards - 1)) != 0) num_shards &= num_shards - 1;
    shards_ = std::vector<Shard>(num_shards);
    mask_ = num_shards - 1;
    per_shard_capacity_ =
        capacity == 0 ? 0 : (capacity + num_shards - 1) / num_shards;
  }

  bool enabled() const { return per_shard_capacity_ > 0; }

  /// Returns the cached value for `key`, refreshing its recency. Counts
  /// nothing: the caller decides whether the lookup answered a request and
  /// then calls Count once.
  std::optional<Value> Peek(uint64_t key) {
    if (!enabled()) return std::nullopt;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->value;
  }

  /// Counts one lookup of `key` as a hit or a miss (nothing when disabled).
  void Count(uint64_t key, bool hit) {
    if (!enabled()) return;
    Shard& shard = ShardFor(key);
    (hit ? shard.hits : shard.misses).fetch_add(1, std::memory_order_relaxed);
  }

  /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
  /// of the shard when full.
  void Put(uint64_t key, Value value) {
    if (!enabled()) return;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.push_front(Entry{key, std::move(value)});
    shard.index[key] = shard.order.begin();
    if (shard.order.size() > per_shard_capacity_) {
      shard.index.erase(shard.order.back().key);
      shard.order.pop_back();
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drops every entry (hit/miss counters survive). Used on hot reload —
  /// cached scores are generation-specific and the keys embed the
  /// generation, but flushing eagerly frees memory for dead generations.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.order.clear();
      shard.index.clear();
    }
  }

  CacheStats Stats() const {
    CacheStats stats;
    for (const Shard& shard : shards_) {
      stats.hits += shard.hits.load(std::memory_order_relaxed);
      stats.misses += shard.misses.load(std::memory_order_relaxed);
      stats.evictions += shard.evictions.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.size += static_cast<int64_t>(shard.order.size());
    }
    return stats;
  }

 private:
  struct Entry {
    uint64_t key;
    Value value;
  };
  /// Cache-line aligned, with the lookup counters on the mutex's line: a
  /// counted lookup touches one line of shard state besides the entry.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> evictions{0};
    std::list<Entry> order;  ///< Front = most recent.
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(uint64_t key) { return shards_[(key >> 48) & mask_]; }

  std::vector<Shard> shards_;
  size_t mask_ = 0;
  size_t per_shard_capacity_ = 0;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_LRU_CACHE_H_
