// Copyright 2026 The Microbrowse Authors
//
// Worker faults in the threaded statistics build and metrics: a pool task
// that fails (here: the threadpool.task failpoint, armed on every task)
// must be redone on the caller's thread, never silently dropped, so the
// threaded results equal the single-threaded ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/stats_db.h"
#include "ml/metrics.h"

namespace microbrowse {
namespace {

class PoolFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DeactivateAll(); }
  void TearDown() override { failpoint::DeactivateAll(); }

  static void FailEveryPoolTask() {
    failpoint::Spec spec;
    spec.mode = failpoint::Spec::Mode::kAlways;
    failpoint::Activate("threadpool.task", spec);
  }
};

std::map<std::string, std::pair<int64_t, int64_t>> Entries(const FeatureStatsDb& db) {
  std::map<std::string, std::pair<int64_t, int64_t>> out;
  db.ForEach([&out](std::string_view key, const FeatureStat& stat) {
    out.emplace(std::string(key), std::make_pair(stat.positive, stat.total));
  });
  return out;
}

TEST_F(PoolFaultTest, ParallelForAllRunsEveryIndexDespiteFailedTasks) {
  failpoint::Spec spec;
  spec.mode = failpoint::Spec::Mode::kNth;
  spec.nth = 3;
  failpoint::Activate("threadpool.task", spec);
  ThreadPool pool(2);
  std::vector<int> runs(16, 0);
  pool.ParallelForAll(runs.size(), [&runs](size_t i) { ++runs[i]; });
  EXPECT_EQ(runs, std::vector<int>(16, 1));
}

TEST_F(PoolFaultTest, ThreadedStatsBuildEqualsSerialUnderFailingTasks) {
  AdCorpusOptions corpus_options;
  corpus_options.num_adgroups = 300;
  corpus_options.seed = 1;
  auto generated = GenerateAdCorpus(corpus_options);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
  ASSERT_GE(pairs.pairs.size(), 256u) << "too few pairs to exercise the threaded build";

  BuildStatsOptions options;
  options.num_threads = 1;
  const FeatureStatsDb serial = BuildFeatureStats(pairs, options);
  FailEveryPoolTask();
  options.num_threads = 4;
  const FeatureStatsDb threaded = BuildFeatureStats(pairs, options);
  EXPECT_EQ(threaded.size(), serial.size());
  EXPECT_TRUE(Entries(threaded) == Entries(serial));
}

TEST_F(PoolFaultTest, ThreadedMetricsEqualSerialUnderFailingTasks) {
  Rng rng(3);
  std::vector<ScoredLabel> scored(20000);
  for (ScoredLabel& s : scored) {
    // Coarse scores, so ties exercise the rank averaging too.
    s.score = static_cast<double>(rng.NextIndex(500)) / 500.0;
    s.label = rng.Bernoulli(0.3 + 0.4 * s.score);
  }
  const BinaryMetrics serial_metrics = ComputeBinaryMetrics(scored, 0.5, 1);
  const double serial_auc = ComputeAuc(scored, 1);
  FailEveryPoolTask();
  const BinaryMetrics threaded_metrics = ComputeBinaryMetrics(scored, 0.5, 4);
  const double threaded_auc = ComputeAuc(scored, 4);
  EXPECT_EQ(threaded_metrics.true_positives, serial_metrics.true_positives);
  EXPECT_EQ(threaded_metrics.false_positives, serial_metrics.false_positives);
  EXPECT_EQ(threaded_metrics.true_negatives, serial_metrics.true_negatives);
  EXPECT_EQ(threaded_metrics.false_negatives, serial_metrics.false_negatives);
  EXPECT_EQ(threaded_auc, serial_auc);
}

}  // namespace
}  // namespace microbrowse
