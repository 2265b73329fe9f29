// Copyright 2026 The Microbrowse Authors

#include "common/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/string_util.h"

namespace microbrowse {

namespace {

/// Shortest round-trip decimal rendering (Prometheus has no NaN/Inf in
/// practice for our metrics, but render them as Prometheus expects).
std::string FormatMetricValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end);
}

/// Appends one "name{labels} value\n" sample line.
void AppendSample(std::string* out, const std::string& name, const char* labels,
                  const std::string& value) {
  *out += name;
  *out += labels;
  out->push_back(' ');
  *out += value;
  out->push_back('\n');
}

}  // namespace

MetricRegistry& MetricRegistry::Global() {
  // Leaked on purpose: call sites cache metric pointers in function-local
  // statics, which may be touched by detached threads after main returns.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Shard& MetricRegistry::ShardFor(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kNumShards];
}

const MetricRegistry::Shard& MetricRegistry::ShardFor(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kNumShards];
}

MetricRegistry::Metric* MetricRegistry::FindOrCreate(std::string_view name, Kind kind,
                                                     int num_shards) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.metrics.find(std::string(name));
  if (it == shard.metrics.end()) {
    Metric metric;
    metric.kind = kind;
    switch (kind) {
      case Kind::kCounter: metric.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: metric.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        metric.histogram = std::make_unique<ShardedHistogram>(num_shards);
        break;
    }
    it = shard.metrics.emplace(std::string(name), std::move(metric)).first;
  }
  if (it->second.kind != kind) return nullptr;
  return &it->second;
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  Metric* metric = FindOrCreate(name, Kind::kCounter, 0);
  if (metric == nullptr) {
    MB_LOG(kWarning) << "metric '" << name
                     << "' already registered with a different kind; returning a "
                        "detached counter";
    static Counter* dummy = new Counter();
    return dummy;
  }
  return metric->counter.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  Metric* metric = FindOrCreate(name, Kind::kGauge, 0);
  if (metric == nullptr) {
    MB_LOG(kWarning) << "metric '" << name
                     << "' already registered with a different kind; returning a "
                        "detached gauge";
    static Gauge* dummy = new Gauge();
    return dummy;
  }
  return metric->gauge.get();
}

ShardedHistogram* MetricRegistry::GetHistogram(std::string_view name, int num_shards) {
  Metric* metric = FindOrCreate(name, Kind::kHistogram, num_shards);
  if (metric == nullptr) {
    MB_LOG(kWarning) << "metric '" << name
                     << "' already registered with a different kind; returning a "
                        "detached histogram";
    static ShardedHistogram* dummy = new ShardedHistogram(1);
    return dummy;
  }
  return metric->histogram.get();
}

std::vector<MetricRegistry::Entry> MetricRegistry::Snapshot() const {
  std::vector<Entry> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, metric] : shard.metrics) {
      Entry entry;
      entry.name = name;
      entry.kind = metric.kind;
      switch (metric.kind) {
        case Kind::kCounter: entry.counter_value = metric.counter->Value(); break;
        case Kind::kGauge: entry.gauge_value = metric.gauge->Value(); break;
        case Kind::kHistogram: entry.histogram = metric.histogram->Snapshot(); break;
      }
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return entries;
}

std::string MetricRegistry::RenderPrometheusText() const {
  std::string out;
  for (const Entry& entry : Snapshot()) {
    const std::string name = PrometheusName(entry.name);
    switch (entry.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        AppendSample(&out, name, "",
                     StrFormat("%lld", static_cast<long long>(entry.counter_value)));
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        AppendSample(&out, name, "", FormatMetricValue(entry.gauge_value));
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot& h = entry.histogram;
        out += "# TYPE " + name + " summary\n";
        AppendSample(&out, name, "{quantile=\"0.5\"}", FormatMetricValue(h.p50));
        AppendSample(&out, name, "{quantile=\"0.95\"}", FormatMetricValue(h.p95));
        AppendSample(&out, name, "{quantile=\"0.99\"}", FormatMetricValue(h.p99));
        AppendSample(&out, name + "_sum", "", FormatMetricValue(h.sum));
        AppendSample(&out, name + "_count", "",
                     StrFormat("%lld", static_cast<long long>(h.count)));
        break;
      }
    }
  }
  return out;
}

void MetricRegistry::ResetAllForTest() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [name, metric] : shard.metrics) {
      switch (metric.kind) {
        case Kind::kCounter: metric.counter->Reset(); break;
        case Kind::kGauge: metric.gauge->Reset(); break;
        case Kind::kHistogram: metric.histogram->Reset(); break;
      }
    }
  }
}

size_t MetricRegistry::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.metrics.size();
  }
  return total;
}

std::string PrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

void PreregisterPipelineMetrics(MetricRegistry* registry) {
  // The canonical train-stage metric set (DESIGN.md section 12). Kept in
  // sync with the instrumentation in corpus/, microbrowse/, and ml/.
  for (const char* name : {
           "mb.corpus.adgroups_generated",
           "mb.corpus.creatives_generated",
           "mb.stats.build_passes",
           "mb.stats.pairs_observed",
           "mb.train.runs",
           "mb.train.epochs",
           "mb.train.examples",
           "mb.cv.runs",
           "mb.cv.fold_splits",
           "mb.cv.folds_trained",
       }) {
    registry->GetCounter(name);
  }
  registry->GetGauge("mb.stats.features");
  registry->GetHistogram("mb.cv.fold_seconds");
}

}  // namespace microbrowse
