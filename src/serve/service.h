// Copyright 2026 The Microbrowse Authors
//
// The request-handling core of mbserved, decoupled from sockets so tests
// and the serve_bench load generator can drive it in-process. One
// HandleLine call maps one request line to one response line; the method
// is fully thread-safe and lock-free on the hot path apart from one
// cache-shard lock.
//
// Scoring is read-only over the current bundle: PredictPairMargin looks
// each feature up in the bundle's immutable registries (falling back to the
// statistics warm start for unseen ones), so concurrent misses share one
// bundle with no per-request state that grows. Results are memoised in
// sharded LRU caches keyed by generation + snippet content hash — ad
// serving re-scores the same creatives constantly, and a warm hit skips
// tokenization, n-gram extraction and rewrite matching entirely.

#ifndef MICROBROWSE_SERVE_SERVICE_H_
#define MICROBROWSE_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include <atomic>

#include "serve/bundle.h"
#include "serve/health.h"
#include "serve/lru_cache.h"
#include "serve/metrics.h"
#include "serve/protocol.h"

namespace microbrowse {
namespace serve {

/// Service configuration.
struct ServiceOptions {
  /// Total cached entries per cache (pair margins and pointwise scores are
  /// cached separately). 0 disables caching.
  size_t cache_capacity = 1 << 16;
  size_t cache_shards = 16;
  /// Honour {"type":"debug_sleep","ms":N} requests — a test/bench hook for
  /// making worker occupancy deterministic. Never enable in production.
  bool allow_debug_sleep = false;
  /// Registry the serve metrics live in. mbserved passes
  /// &MetricRegistry::Global() so /metricsz also exports pipeline-stage
  /// counters; nullptr gives the service a private registry, which keeps
  /// counters isolated between tests sharing a process.
  MetricRegistry* registry = nullptr;
};

class ScoringService {
 public:
  /// `registry` must outlive the service and have a loaded bundle before
  /// the first scoring request.
  ScoringService(BundleRegistry* registry, ServiceOptions options = {});

  /// Handles one request line, returning the response line (no trailing
  /// newline). Never throws; every failure is an {"ok":false,...} response.
  std::string HandleLine(std::string_view line);

  /// Allocation-free variant for the serving hot path: parses into a
  /// per-thread scratch Request (arena-backed) and builds the response into
  /// `*response` (cleared first), so a warm worker thread handles a cached
  /// request with zero heap allocations. Byte-identical output to
  /// HandleLine.
  void HandleLineTo(std::string_view line, std::string* response);

  /// Attaches the server's drain-state bits so healthz/readyz can report
  /// "draining". Called by Server::Start; tests driving the service
  /// in-process may leave it unset (the service then reports serving or
  /// degraded purely from bundle state). `health` must outlive the
  /// service's last HandleLine call; nullptr detaches.
  void AttachHealth(const HealthState* health) {
    health_.store(health, std::memory_order_release);
  }

  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  /// The registry the serve metrics live in (options.registry, or the
  /// service-private one when that was null).
  MetricRegistry& metric_registry() { return *metric_registry_; }
  /// Prometheus text exposition of every metric in the registry; what the
  /// metricsz endpoint (and mbserved's HTTP GET /metricsz) serves.
  std::string RenderMetricsText() const { return metric_registry_->RenderPrometheusText(); }
  CacheStats pair_cache_stats() const { return pair_cache_.Stats(); }
  CacheStats point_cache_stats() const { return point_cache_.Stats(); }

 private:
  void Dispatch(const Request& request, Endpoint endpoint, JsonWriter& response,
                bool* ok);
  Status HandleScorePair(const Request& request, JsonWriter& response);
  Status HandlePredictCtr(const Request& request, JsonWriter& response);
  Status HandleExamine(const Request& request, JsonWriter& response);
  Status HandleReload(const Request& request, JsonWriter& response);
  Status HandleStatsz(JsonWriter& response);
  Status HandleMetricsz(JsonWriter& response);
  Status HandleHealthz(JsonWriter& response);
  Status HandleReadyz(JsonWriter& response);
  bool draining() const {
    const HealthState* health = health_.load(std::memory_order_acquire);
    return health != nullptr && health->draining.load(std::memory_order_acquire);
  }

  BundleRegistry* registry_;
  std::atomic<const HealthState*> health_{nullptr};
  ServiceOptions options_;
  /// Present only when options.registry was null; declared before the
  /// metric handles below so it outlives them during destruction.
  std::unique_ptr<MetricRegistry> owned_registry_;
  MetricRegistry* metric_registry_;
  ServerMetrics metrics_;
  Counter* reload_success_;
  Counter* reload_failure_;
  ShardedLruCache<double> pair_cache_;
  ShardedLruCache<double> point_cache_;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_SERVICE_H_
