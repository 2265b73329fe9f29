// Copyright 2026 The Microbrowse Authors
//
// The determinism suite for the parallel training hot path (DESIGN.md
// section 11): every parallelised component — the statistics build, the
// metrics pass and the full CV pipeline — must produce bitwise identical
// results for any thread count. These tests compare 1, 2 and 8 worker runs
// with exact (==) equality on doubles, deliberately: the contract is
// reproducibility, not approximation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/pipeline.h"
#include "microbrowse/stats_db.h"
#include "ml/metrics.h"

namespace microbrowse {
namespace {

TEST(TrainingDeterminismTest, MetricsAndAucThreadInvariant) {
  Rng rng(13);
  std::vector<ScoredLabel> scored;
  for (int i = 0; i < 20000; ++i) {
    // Quantised scores force plenty of ties through the AUC tie-grouping.
    const double score = static_cast<double>(rng.NextIndex(101)) / 50.0 - 1.0;
    scored.push_back(ScoredLabel{score, rng.Bernoulli(Sigmoid(3.0 * score))});
  }
  const BinaryMetrics reference = ComputeBinaryMetrics(scored, 0.0, 1);
  const double reference_auc = ComputeAuc(scored, 1);
  for (int threads : {2, 8}) {
    const BinaryMetrics parallel = ComputeBinaryMetrics(scored, 0.0, threads);
    EXPECT_EQ(parallel.true_positives, reference.true_positives);
    EXPECT_EQ(parallel.false_positives, reference.false_positives);
    EXPECT_EQ(parallel.true_negatives, reference.true_negatives);
    EXPECT_EQ(parallel.false_negatives, reference.false_negatives);
    EXPECT_EQ(ComputeAuc(scored, threads), reference_auc) << threads << " threads";
  }
}

PairCorpus MakePairs(uint64_t seed, int adgroups) {
  AdCorpusOptions options;
  options.num_adgroups = adgroups;
  options.seed = seed;
  auto generated = GenerateAdCorpus(options);
  EXPECT_TRUE(generated.ok());
  return ExtractSignificantPairs(generated->corpus, {});
}

TEST(TrainingDeterminismTest, BuildFeatureStatsThreadInvariant) {
  const PairCorpus pairs = MakePairs(19, 120);
  // Enough pairs to clear the parallel-path threshold; otherwise the test
  // would trivially compare the serial path with itself.
  ASSERT_GE(pairs.pairs.size(), 256u);
  BuildStatsOptions options;
  options.num_threads = 1;
  const FeatureStatsDb reference = BuildFeatureStats(pairs, options);
  ASSERT_GT(reference.size(), 0u);
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const FeatureStatsDb parallel = BuildFeatureStats(pairs, options);
    ASSERT_EQ(parallel.size(), reference.size()) << threads << " threads";
    for (const auto& [key, stat] : reference.stats()) {
      const FeatureStat* other = parallel.Find(key);
      ASSERT_NE(other, nullptr) << key;
      EXPECT_EQ(other->positive, stat.positive) << key;
      EXPECT_EQ(other->total, stat.total) << key;
    }
  }
}

TEST(TrainingDeterminismTest, PipelineReportBitwiseIdenticalAcrossThreadCounts) {
  const PairCorpus pairs = MakePairs(23, 60);
  ASSERT_GE(pairs.pairs.size(), 20u);
  // train_threads reaches the statistics build and the metrics pass.
  const ClassifierConfig config = ClassifierConfig::M1();
  PipelineOptions options;
  options.folds = 5;
  options.seed = 99;

  options.num_threads = 1;
  options.train_threads = 1;
  auto reference = RunPairClassificationCv(pairs, config, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    options.train_threads = threads;
    auto parallel = RunPairClassificationCv(pairs, config, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->metrics.true_positives, reference->metrics.true_positives);
    EXPECT_EQ(parallel->metrics.false_positives, reference->metrics.false_positives);
    EXPECT_EQ(parallel->metrics.true_negatives, reference->metrics.true_negatives);
    EXPECT_EQ(parallel->metrics.false_negatives, reference->metrics.false_negatives);
    EXPECT_EQ(parallel->auc, reference->auc);  // Exact double equality.
    EXPECT_EQ(parallel->num_t_features, reference->num_t_features);
    EXPECT_EQ(parallel->num_p_features, reference->num_p_features);
  }
}

// The instrumentation layer rides the same contract: spans and metric
// deltas are counted at work-item granularity, so the counts — not the
// timings — must be identical for any thread count, and turning tracing
// on must not perturb the numerical results.
TEST(TrainingDeterminismTest, InstrumentationCountsThreadInvariant) {
  const PairCorpus pairs = MakePairs(29, 60);
  ASSERT_GE(pairs.pairs.size(), 20u);
  const ClassifierConfig config = ClassifierConfig::M1();
  PipelineOptions options;
  options.folds = 4;
  options.seed = 7;

  struct InstrumentationDeltas {
    int64_t cv_runs = 0;
    int64_t fold_splits = 0;
    int64_t folds_trained = 0;
    int64_t fold_seconds_samples = 0;
    int64_t train_runs = 0;
    int64_t train_epochs = 0;
    int64_t train_examples = 0;
    int64_t stats_passes = 0;
    uint64_t spans = 0;
    double auc = 0.0;
  };
  static constexpr const char* kCounters[] = {
      "mb.cv.runs",    "mb.cv.fold_splits", "mb.cv.folds_trained",
      "mb.train.runs", "mb.train.epochs",   "mb.train.examples",
      "mb.stats.build_passes",
  };
  const auto run_with = [&](int threads) {
    MetricRegistry& registry = MetricRegistry::Global();
    int64_t before[7];
    for (int i = 0; i < 7; ++i) before[i] = registry.GetCounter(kCounters[i])->Value();
    const int64_t fold_seconds_before =
        registry.GetHistogram("mb.cv.fold_seconds")->Count();
    trace::Enable();
    options.num_threads = threads;
    options.train_threads = threads;
    auto report = RunPairClassificationCv(pairs, config, options);
    trace::Disable();
    EXPECT_TRUE(report.ok());
    InstrumentationDeltas deltas;
    deltas.cv_runs = registry.GetCounter(kCounters[0])->Value() - before[0];
    deltas.fold_splits = registry.GetCounter(kCounters[1])->Value() - before[1];
    deltas.folds_trained = registry.GetCounter(kCounters[2])->Value() - before[2];
    deltas.train_runs = registry.GetCounter(kCounters[3])->Value() - before[3];
    deltas.train_epochs = registry.GetCounter(kCounters[4])->Value() - before[4];
    deltas.train_examples = registry.GetCounter(kCounters[5])->Value() - before[5];
    deltas.stats_passes = registry.GetCounter(kCounters[6])->Value() - before[6];
    deltas.fold_seconds_samples =
        registry.GetHistogram("mb.cv.fold_seconds")->Count() - fold_seconds_before;
    deltas.spans = trace::CollectedSpanCount();
    deltas.auc = report.ok() ? report->auc : -1.0;
    return deltas;
  };

  const InstrumentationDeltas reference = run_with(1);
  EXPECT_EQ(reference.cv_runs, 1);
  EXPECT_EQ(reference.fold_splits, 1);
  EXPECT_EQ(reference.folds_trained, options.folds);
  EXPECT_EQ(reference.fold_seconds_samples, options.folds);
  EXPECT_EQ(reference.train_runs, options.folds);
  EXPECT_GT(reference.train_epochs, 0);
  EXPECT_GT(reference.train_examples, 0);
  EXPECT_GE(reference.stats_passes, 1);
  // One run span + one shared stats build + one span per matching pass +
  // one shared dataset build and CSR flatten + one fold span, one LR span
  // and one scoring span per fold (M1 trains a single phase).
  EXPECT_EQ(reference.spans,
            4u + static_cast<uint64_t>(reference.stats_passes) +
                3u * static_cast<uint64_t>(options.folds));

  for (int threads : {2, 8}) {
    const InstrumentationDeltas parallel = run_with(threads);
    EXPECT_EQ(parallel.cv_runs, reference.cv_runs) << threads << " threads";
    EXPECT_EQ(parallel.fold_splits, reference.fold_splits) << threads << " threads";
    EXPECT_EQ(parallel.folds_trained, reference.folds_trained) << threads << " threads";
    EXPECT_EQ(parallel.fold_seconds_samples, reference.fold_seconds_samples)
        << threads << " threads";
    EXPECT_EQ(parallel.train_runs, reference.train_runs) << threads << " threads";
    EXPECT_EQ(parallel.train_epochs, reference.train_epochs) << threads << " threads";
    EXPECT_EQ(parallel.train_examples, reference.train_examples)
        << threads << " threads";
    EXPECT_EQ(parallel.stats_passes, reference.stats_passes) << threads << " threads";
    EXPECT_EQ(parallel.spans, reference.spans) << threads << " threads";
    EXPECT_EQ(parallel.auc, reference.auc) << threads << " threads";
  }
}

}  // namespace
}  // namespace microbrowse
