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

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/timer.h"
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
  /// cached separately), each cache split into 16 lock shards. 0
  /// disables caching.
  size_t cache_capacity = 1 << 16;
  /// Honour {"type":"debug_sleep","ms":N} requests — a test/bench hook for
  /// holding a reactor thread for a known time. Never enable in production.
  bool allow_debug_sleep = false;
  /// Registry the serve metrics live in. mbserved passes
  /// &MetricRegistry::Global() so /metricsz also exports pipeline-stage
  /// counters; nullptr gives the service a private registry, which keeps
  /// counters isolated between tests sharing a process.
  MetricRegistry* registry = nullptr;
};

/// One parsed request resolved against the current bundle and the result
/// cache, with nothing counted yet.
struct CacheProbe {
  Endpoint endpoint = Endpoint::kOther;
  /// The generation a score_pair / predict_ctr request scores on, borrowed
  /// for this request (BundleRegistry::CurrentOnThisThread); null for other
  /// types, empty scoring fields or no loaded bundle.
  const ModelBundle* bundle = nullptr;
  /// The result-cache key (meaningful only with a bundle).
  uint64_t key = 0;
  /// The cached result, when the probe hit.
  std::optional<double> cached;

  bool hit() const { return cached.has_value(); }
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
  /// `*response` (cleared first), so a warm serving thread handles a cached
  /// request with zero heap allocations. Byte-identical output to
  /// HandleLine.
  void HandleLineTo(std::string_view line, std::string* response);

  /// HandleLineTo after its parse: builds the response to `request` into
  /// `*response` — or, when `parsed` is not OK, the parse error, without
  /// reading `request` — and counts the request exactly once: one cache
  /// hit or miss for a scoring request, and one endpoint request whose
  /// latency runs from `started`. The server parses each line once itself
  /// (it reads the deadline from the parse) and answers through this.
  void Respond(const Status& parsed, const Request& request, const WallTimer& started,
               std::string* response);

  /// Attaches the server's drain-state bits so healthz/readyz can report
  /// "draining". Called by Server::Start; tests driving the service
  /// in-process may leave it unset (the service then reports serving or
  /// degraded purely from bundle state). `health` must outlive the
  /// service's last HandleLine call; nullptr detaches.
  void AttachHealth(const HealthState* health) {
    health_.store(health, std::memory_order_release);
  }

  /// Moves the calling thread's bundle reference to the current generation
  /// (BundleRegistry::CurrentOnThisThread), releasing a reloaded-away one.
  /// Serving threads call it when idle; scoring does it as a side effect.
  void FollowReloadsOnThisThread() const { (void)registry_->CurrentOnThisThread(); }

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
  /// Classifies a parsed request and looks a scoring request up in the
  /// result cache; counts nothing.
  CacheProbe ProbeCache(const Request& request);
  void Dispatch(const Request& request, const CacheProbe& probe, JsonWriter& response,
                bool* ok);
  Status HandleScorePair(const Request& request, const CacheProbe& probe,
                         JsonWriter& response);
  Status HandlePredictCtr(const Request& request, const CacheProbe& probe,
                          JsonWriter& response);
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
