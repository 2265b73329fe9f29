// Copyright 2026 The Microbrowse Authors
//
// MetricRegistry behaviour: stable pointers, kind-clash handling, sorted
// snapshots, Prometheus text rendering and concurrent first-registration
// over the lock shards.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace microbrowse {
namespace {

TEST(MetricsTest, CounterPointerIsStableAndAccumulates) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("mb.test.requests");
  EXPECT_EQ(counter->Value(), 0);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Value(), 42);
  // Same name -> the very same metric object.
  EXPECT_EQ(registry.GetCounter("mb.test.requests"), counter);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsTest, GaugeIsLastWriteWins) {
  MetricRegistry registry;
  Gauge* gauge = registry.GetGauge("mb.test.depth");
  gauge->Set(3.5);
  gauge->Set(-1.25);
  EXPECT_EQ(gauge->Value(), -1.25);
}

TEST(MetricsTest, KindClashReturnsDetachedDummy) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("mb.test.name");
  counter->Increment(7);
  // Asking for the same name as a different kind must not crash and must
  // not disturb the original metric.
  Gauge* gauge = registry.GetGauge("mb.test.name");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(99.0);
  ShardedHistogram* histogram = registry.GetHistogram("mb.test.name");
  ASSERT_NE(histogram, nullptr);
  histogram->Record(1.0);
  EXPECT_EQ(counter->Value(), 7);
  EXPECT_EQ(registry.size(), 1u);
  auto entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, MetricRegistry::Kind::kCounter);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricRegistry registry;
  registry.GetCounter("mb.z.last");
  registry.GetGauge("mb.a.first");
  registry.GetHistogram("mb.m.middle");
  const auto entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "mb.a.first");
  EXPECT_EQ(entries[1].name, "mb.m.middle");
  EXPECT_EQ(entries[2].name, "mb.z.last");
}

TEST(MetricsTest, PrometheusNameSanitizesCharset) {
  EXPECT_EQ(PrometheusName("mb.serve.score_pair.requests"),
            "mb_serve_score_pair_requests");
  EXPECT_EQ(PrometheusName("weird-name with spaces"), "weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(MetricsTest, RenderPrometheusTextCoversAllKinds) {
  MetricRegistry registry;
  registry.GetCounter("mb.test.requests")->Increment(5);
  registry.GetGauge("mb.test.temperature")->Set(2.5);
  ShardedHistogram* histogram = registry.GetHistogram("mb.test.latency");
  histogram->Record(0.001);
  histogram->Record(0.002);
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE mb_test_requests counter\nmb_test_requests 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE mb_test_temperature gauge\nmb_test_temperature 2.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE mb_test_latency summary\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_test_latency{quantile=\"0.5\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_test_latency{quantile=\"0.95\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_test_latency{quantile=\"0.99\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_test_latency_sum "), std::string::npos) << text;
  EXPECT_NE(text.find("mb_test_latency_count 2\n"), std::string::npos) << text;
  // Every sample line is "name[{labels}] value" — two tokens.
  size_t line_start = 0;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 1) << line;
    }
    line_start = line_end + 1;
  }
}

TEST(MetricsTest, ResetAllZeroesEveryKindButKeepsPointersValid) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("mb.test.count");
  Gauge* gauge = registry.GetGauge("mb.test.gauge");
  ShardedHistogram* histogram = registry.GetHistogram("mb.test.histogram");
  counter->Increment(3);
  gauge->Set(4.0);
  histogram->Record(1.0);
  registry.ResetAllForTest();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(histogram->Count(), 0);
  counter->Increment();
  EXPECT_EQ(counter->Value(), 1);
}

TEST(MetricsTest, PreregisterPipelineMetricsExportsTrainCountersAtZero) {
  MetricRegistry registry;
  PreregisterPipelineMetrics(&registry);
  EXPECT_EQ(registry.size(), 12u);  // 10 counters, a gauge and a histogram.
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("mb_train_epochs 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_cv_folds_trained 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_corpus_adgroups_generated 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_stats_features 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mb_cv_fold_seconds_count 0\n"), std::string::npos) << text;
  // Preregistration is idempotent.
  const size_t before = registry.size();
  PreregisterPipelineMetrics(&registry);
  EXPECT_EQ(registry.size(), before);
}

TEST(MetricsTest, ConcurrentFirstRegistrationYieldsOneMetricPerName) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kNames = 32;
  std::vector<std::vector<Counter*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      for (int n = 0; n < kNames; ++n) {
        Counter* counter = registry.GetCounter("mb.race." + std::to_string(n));
        counter->Increment();
        seen[t].push_back(counter);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.size(), static_cast<size_t>(kNames));
  for (int n = 0; n < kNames; ++n) {
    // All threads resolved the same pointer, and every increment landed.
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][n], seen[0][n]);
    EXPECT_EQ(seen[0][n]->Value(), kThreads);
  }
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricRegistry::Global(), &MetricRegistry::Global());
}

}  // namespace
}  // namespace microbrowse
