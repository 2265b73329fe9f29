// Copyright 2026 The Microbrowse Authors
//
// Fold-failure propagation in the cross-validation pipeline: a fold that
// fails (here: the pipeline.fold failpoint, armed to fire once) must fail
// the whole run with that fold's status, whichever pool worker trained it,
// and leave nothing behind that changes the next run.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/failpoint.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/pipeline.h"

namespace microbrowse {
namespace {

class PipelineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DeactivateAll(); }
  void TearDown() override { failpoint::DeactivateAll(); }
};

TEST_F(PipelineFaultTest, ArmedFoldFailpointFailsTheRunWithItsStatus) {
  AdCorpusOptions corpus_options;
  corpus_options.num_adgroups = 60;
  corpus_options.seed = 7;
  auto generated = GenerateAdCorpus(corpus_options);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
  ASSERT_GE(pairs.pairs.size(), 20u);
  const ClassifierConfig config = ClassifierConfig::M1();
  PipelineOptions options;
  options.folds = 5;
  auto reference = RunPairClassificationCv(pairs, config, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    options.num_threads = threads;
    // The third fold to reach the failpoint fails, and no fold starts
    // after that: at one thread the last two never reach the failpoint.
    failpoint::Spec kill;
    kill.mode = failpoint::Spec::Mode::kNth;
    kill.nth = 3;
    kill.code = StatusCode::kUnavailable;
    failpoint::Activate("pipeline.fold", kill);
    auto killed = RunPairClassificationCv(pairs, config, options);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(killed.status().message(), "failpoint 'pipeline.fold' fired (hit 3)");
    if (threads == 1) {
      EXPECT_EQ(failpoint::HitCount("pipeline.fold"), 3);
    } else {
      EXPECT_LE(failpoint::HitCount("pipeline.fold"), options.folds);
    }
    EXPECT_EQ(failpoint::FireCount("pipeline.fold"), 1);
    failpoint::DeactivateAll();

    // Disarmed, the same options reproduce the reference run exactly.
    auto rerun = RunPairClassificationCv(pairs, config, options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->metrics.true_positives, reference->metrics.true_positives);
    EXPECT_EQ(rerun->metrics.false_positives, reference->metrics.false_positives);
    EXPECT_EQ(rerun->metrics.true_negatives, reference->metrics.true_negatives);
    EXPECT_EQ(rerun->metrics.false_negatives, reference->metrics.false_negatives);
    EXPECT_EQ(rerun->auc, reference->auc);  // Exact double equality, intentionally.
  }
}

}  // namespace
}  // namespace microbrowse
