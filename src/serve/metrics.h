// Copyright 2026 The Microbrowse Authors
//
// Per-endpoint serving metrics backed by the process-wide metric registry
// (common/metrics.h): request/error counters, a sharded latency histogram
// (p50/p95/p99) and cache hit counters, plus server-level counters (queue
// rejections) and a batch-size histogram. Everything on the request path
// is an atomic increment; statsz and /metricsz aggregate on demand.
//
// Metric names follow the mb.<subsystem>.<name> scheme:
// mb.serve.<endpoint>.{requests,errors,cache_hits,cache_misses,latency}
// plus the server-level counters mb.serve.rejected_overload,
// mb.serve.deadline_exceeded, mb.serve.drained, mb.serve.idle_evicted,
// mb.serve.write_timeout and the mb.serve.batch_size histogram. The four
// refusal counters plus per-endpoint ok responses exactly account for every
// request the server ever read — the invariant the chaos soak harness
// asserts.

#ifndef MICROBROWSE_SERVE_METRICS_H_
#define MICROBROWSE_SERVE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/metrics.h"

namespace microbrowse {
namespace serve {

/// The serviced endpoints, in statsz order.
enum class Endpoint : int {
  kScorePair = 0,
  kPredictCtr,
  kExamine,
  kReload,
  kStatsz,
  kMetricsz,
  kHealthz,
  kReadyz,
  kPing,
  kOther,  ///< Unknown / malformed request types.
};
inline constexpr int kNumEndpoints = 10;

/// Stable wire name of an endpoint ("score_pair", ...).
std::string_view EndpointName(Endpoint endpoint);
/// Inverse of EndpointName; kOther for unknown names.
Endpoint EndpointByName(std::string_view name);

/// Counters for one endpoint; thin handles into a MetricRegistry. The
/// registry owns the metrics and must outlive this object.
class EndpointMetrics {
 public:
  EndpointMetrics(MetricRegistry* registry, std::string_view endpoint_name);

  void RecordRequest(double latency_seconds, bool ok) {
    requests_->Increment(1);
    if (!ok) errors_->Increment(1);
    latency_->Record(latency_seconds);
  }
  void RecordCache(bool hit) { (hit ? cache_hits_ : cache_misses_)->Increment(1); }

  int64_t requests() const { return requests_->Value(); }
  int64_t errors() const { return errors_->Value(); }
  int64_t cache_hits() const { return cache_hits_->Value(); }
  int64_t cache_misses() const { return cache_misses_->Value(); }
  const ShardedHistogram& latency() const { return *latency_; }

 private:
  Counter* requests_;
  Counter* errors_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  ShardedHistogram* latency_;
};

/// All serving metrics; one instance per ScoringService, registered in the
/// service's MetricRegistry (the global one in mbserved, a private one in
/// tests that want isolation).
class ServerMetrics {
 public:
  explicit ServerMetrics(MetricRegistry* registry);

  EndpointMetrics& endpoint(Endpoint endpoint) {
    return endpoints_[static_cast<int>(endpoint)];
  }
  const EndpointMetrics& endpoint(Endpoint endpoint) const {
    return endpoints_[static_cast<int>(endpoint)];
  }

  /// Requests rejected by admission control (queue full or the
  /// per-connection in-flight cap).
  Counter* rejected_overload;
  /// Requests refused because their deadline budget was spent before a
  /// worker reached them.
  Counter* deadline_exceeded;
  /// Requests refused with "draining" after the server began its drain.
  Counter* drained;
  /// Connections evicted by the idle reaper (slow-loris / silent peers).
  Counter* idle_evicted;
  /// Connections evicted because the peer stopped reading: a response
  /// write made no progress for write_timeout_ms, or the pending-response
  /// outbox outgrew its byte cap. Responses already accounted per-endpoint
  /// may be dropped on such a connection — eviction is connection-scoped,
  /// so this counter sits outside the request accounting invariant.
  Counter* write_timeout;
  /// Batch-size distribution of the scoring pool's worker drain loop.
  ShardedHistogram* batch_size;

  /// Renders the nested statsz JSON object (cache stats are appended by
  /// the service, which owns the caches): {"score_pair":{"requests":...},
  /// ...,"rejected_overload":N}.
  std::string RenderStatszJson() const;

 private:
  std::array<EndpointMetrics, kNumEndpoints> endpoints_;
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_METRICS_H_
