// Copyright 2026 The Microbrowse Authors
//
// Process-wide metric registry shared by the training pipeline, the batch
// tools and the online server. Three metric kinds:
//
//   Counter — monotonically increasing int64 (requests, folds trained)
//   Gauge   — last-write-wins double (feature counts, queue depth)
//   ShardedHistogram — latency / size distributions (common/histogram.h)
//
// Metrics are created on first use by name and live for the registry's
// lifetime, so call sites can cache the returned pointer in a static and
// update it with a single relaxed atomic op. The registry itself is
// lock-sharded: the name -> metric map is split over 16 shards, each with
// its own mutex, so concurrent first-registrations (and snapshot scrapes)
// do not serialize the process behind one lock. After the first lookup no
// registry lock is touched on any update path.
//
// Naming scheme: `mb.<subsystem>.<name>` with dot separators, e.g.
// `mb.serve.score_pair.requests`, `mb.train.epochs`. Prometheus rendering
// (RenderPrometheusText) maps dots to underscores.
//
// Determinism contract: instrumented library code must update metrics at
// work-item granularity (per fold, per training run, per request), never
// at thread-chunk granularity, so counter values are identical for any
// thread count of the CV folds, the statistics build or the metrics pass
// (mbctl --threads / --train-threads).
// TrainingDeterminismTest.InstrumentationCountsThreadInvariant asserts
// this.

#ifndef MICROBROWSE_COMMON_METRICS_H_
#define MICROBROWSE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"

namespace microbrowse {

/// Monotonic event counter. Updates are one relaxed atomic add.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-sharded name -> metric registry. Thread-safe; returned pointers
/// stay valid for the registry's lifetime (metrics are never deleted).
class MetricRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  /// One metric's state at snapshot time.
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    int64_t counter_value = 0;
    double gauge_value = 0.0;
    HistogramSnapshot histogram;
  };

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide default registry. Library instrumentation (train
  /// pipeline, corpus generator) records here; servers export it.
  static MetricRegistry& Global();

  /// Finds or creates the named metric. On a kind clash (the name already
  /// exists as a different kind) a warning is logged and a detached dummy
  /// metric is returned, so the caller never crashes and the original
  /// metric keeps its kind.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  ShardedHistogram* GetHistogram(std::string_view name, int num_shards = 8);

  /// Consistent-enough view of every registered metric, sorted by name.
  /// Values are read with relaxed atomics; no update is ever torn (each
  /// scalar is a single atomic), though concurrent updates may or may not
  /// be included.
  std::vector<Entry> Snapshot() const;

  /// Prometheus text exposition (version 0.0.4): counters and gauges as
  /// single samples, histograms as summaries with quantile labels plus
  /// _sum/_count. Metric names have dots mapped to underscores.
  std::string RenderPrometheusText() const;

  /// Zeroes every registered metric (pointers stay valid). For tests and
  /// between-phase bench resets; not atomic against concurrent updates.
  void ResetAllForTest();

  /// Number of registered metrics.
  size_t size() const;

 private:
  struct Metric {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<ShardedHistogram> histogram;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Metric> metrics;
  };

  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(std::string_view name);
  const Shard& ShardFor(std::string_view name) const;
  Metric* FindOrCreate(std::string_view name, Kind kind, int num_shards);

  std::array<Shard, kNumShards> shards_;
};

/// Sanitizes a dotted metric name into the Prometheus charset
/// [a-zA-Z0-9_:] ("mb.serve.score_pair.requests" ->
/// "mb_serve_score_pair_requests").
std::string PrometheusName(std::string_view name);

/// Eagerly registers the canonical train-stage metric names (mb.corpus.*,
/// mb.stats.*, mb.train.*, mb.cv.*) into `registry`, so a process that
/// never trains (mbserved) still exports them at zero — scrapers see a
/// stable metric set across the fleet.
void PreregisterPipelineMetrics(MetricRegistry* registry);

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_METRICS_H_
