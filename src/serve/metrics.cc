// Copyright 2026 The Microbrowse Authors

#include "serve/metrics.h"

#include <utility>

#include "serve/protocol.h"

namespace microbrowse {
namespace serve {

namespace {
constexpr std::string_view kNames[kNumEndpoints] = {
    "score_pair", "predict_ctr", "examine", "reload", "statsz",
    "metricsz",   "healthz",     "readyz",  "ping",   "other",
};

std::string MetricName(std::string_view endpoint_name, std::string_view suffix) {
  std::string name = "mb.serve.";
  name.append(endpoint_name);
  name.push_back('.');
  name.append(suffix);
  return name;
}
}  // namespace

std::string_view EndpointName(Endpoint endpoint) {
  return kNames[static_cast<int>(endpoint)];
}

Endpoint EndpointByName(std::string_view name) {
  for (int i = 0; i < kNumEndpoints; ++i) {
    if (kNames[i] == name) return static_cast<Endpoint>(i);
  }
  return Endpoint::kOther;
}

EndpointMetrics::EndpointMetrics(MetricRegistry* registry, std::string_view endpoint_name)
    : requests_(registry->GetCounter(MetricName(endpoint_name, "requests"))),
      errors_(registry->GetCounter(MetricName(endpoint_name, "errors"))),
      cache_hits_(registry->GetCounter(MetricName(endpoint_name, "cache_hits"))),
      cache_misses_(registry->GetCounter(MetricName(endpoint_name, "cache_misses"))),
      latency_(registry->GetHistogram(MetricName(endpoint_name, "latency"))) {}

namespace {
template <size_t... kIndex>
std::array<EndpointMetrics, kNumEndpoints> MakeEndpoints(MetricRegistry* registry,
                                                         std::index_sequence<kIndex...>) {
  return {EndpointMetrics(registry, kNames[kIndex])...};
}
}  // namespace

ServerMetrics::ServerMetrics(MetricRegistry* registry)
    : rejected_overload(registry->GetCounter("mb.serve.rejected_overload")),
      deadline_exceeded(registry->GetCounter("mb.serve.deadline_exceeded")),
      drained(registry->GetCounter("mb.serve.drained")),
      idle_evicted(registry->GetCounter("mb.serve.idle_evicted")),
      write_timeout(registry->GetCounter("mb.serve.write_timeout")),
      batch_size(registry->GetHistogram("mb.serve.batch_size")),
      endpoints_(MakeEndpoints(registry, std::make_index_sequence<kNumEndpoints>())) {}

std::string ServerMetrics::RenderStatszJson() const {
  JsonWriter top;
  for (int i = 0; i < kNumEndpoints; ++i) {
    const EndpointMetrics& metrics = endpoints_[i];
    if (metrics.requests() == 0) continue;
    const HistogramSnapshot latency = metrics.latency().Snapshot();
    JsonWriter entry;
    entry.Int("requests", metrics.requests())
        .Int("errors", metrics.errors())
        .Int("cache_hits", metrics.cache_hits())
        .Int("cache_misses", metrics.cache_misses())
        .Number("latency_p50_ms", latency.p50 * 1e3)
        .Number("latency_p95_ms", latency.p95 * 1e3)
        .Number("latency_p99_ms", latency.p99 * 1e3)
        .Number("latency_mean_ms", latency.mean() * 1e3);
    top.Raw(kNames[i], entry.Finish());
  }
  top.Int("rejected_overload", rejected_overload->Value());
  top.Int("deadline_exceeded", deadline_exceeded->Value());
  top.Int("drained", drained->Value());
  top.Int("idle_evicted", idle_evicted->Value());
  top.Int("write_timeout", write_timeout->Value());
  const HistogramSnapshot batches = batch_size->Snapshot();
  if (batches.count > 0) {
    top.Number("batch_size_mean", batches.mean()).Number("batch_size_max", batches.max);
  }
  return top.Finish();
}

}  // namespace serve
}  // namespace microbrowse
