// Copyright 2026 The Microbrowse Authors
//
// End-to-end integration tests: the full corpus-generation + two-phase
// classification pipeline at reduced scale, checking the paper's headline
// qualitative results rather than absolute numbers.

#include "eval/experiments.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

namespace microbrowse {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.num_adgroups = 700;
  options.folds = 3;
  options.seed = 11;
  return options;
}

TEST(ExperimentsTest, MakePairCorpusProducesPairs) {
  auto pairs = MakePairCorpus(TinyOptions(), Placement::kTop);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GT(pairs->pairs.size(), 500u);
  for (const auto& pair : pairs->pairs) {
    EXPECT_NE(pair.r.serve_weight, pair.s.serve_weight);
    EXPECT_GT(pair.r.impressions, 0);
    EXPECT_GT(pair.s.impressions, 0);
  }
}

TEST(ExperimentsTest, PairCorpusIsDeterministic) {
  auto a = MakePairCorpus(TinyOptions(), Placement::kTop);
  auto b = MakePairCorpus(TinyOptions(), Placement::kTop);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->pairs.size(), b->pairs.size());
  for (size_t i = 0; i < a->pairs.size(); ++i) {
    EXPECT_EQ(a->pairs[i].adgroup_id, b->pairs[i].adgroup_id);
    EXPECT_EQ(a->pairs[i].r.clicks, b->pairs[i].r.clicks);
  }
}

TEST(ExperimentsTest, TopAndRhsCorporaDiffer) {
  auto top = MakePairCorpus(TinyOptions(), Placement::kTop);
  auto rhs = MakePairCorpus(TinyOptions(), Placement::kRhs);
  ASSERT_TRUE(top.ok());
  ASSERT_TRUE(rhs.ok());
  double top_ctr = 0.0, rhs_ctr = 0.0;
  for (const auto& pair : top->pairs) top_ctr += pair.r.ctr();
  for (const auto& pair : rhs->pairs) rhs_ctr += pair.r.ctr();
  top_ctr /= top->pairs.size();
  rhs_ctr /= rhs->pairs.size();
  EXPECT_LT(rhs_ctr, top_ctr * 0.7);
}

// The headline reproduction check: position information must deliver a
// clear accuracy gain over the bag-of-terms baseline, and the full model
// must be comparable to the best single-family model. Run at reduced scale
// (this is the slowest test in the suite, a couple of minutes on 1 core).
TEST(ExperimentsTest, PositionModelsBeatPositionBlindModels) {
  ExperimentOptions options = TinyOptions();
  options.num_adgroups = 1500;
  options.Normalize();
  auto pairs = MakePairCorpus(options, Placement::kTop);
  ASSERT_TRUE(pairs.ok());

  auto run = [&](const ClassifierConfig& config) {
    auto report = RunPairClassificationCv(*pairs, config, options.pipeline);
    EXPECT_TRUE(report.ok()) << config.name;
    return report.ok() ? report->metrics.accuracy() : 0.0;
  };
  const double m1 = run(ClassifierConfig::M1());
  const double m2 = run(ClassifierConfig::M2());
  const double m6 = run(ClassifierConfig::M6());

  EXPECT_GT(m1, 0.5);   // Text alone is better than chance...
  EXPECT_GT(m2, m1 + 0.03);  // ...but position adds a clear margin.
  EXPECT_GT(m6, m1 + 0.03);
}

TEST(ExperimentsTest, EnvIntParsesAndFallsBack) {
  ::setenv("MB_TEST_ENV_INT", "123", 1);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 5), 123);
  ::setenv("MB_TEST_ENV_INT", "garbage", 1);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 5), 5);
  ::setenv("MB_TEST_ENV_INT", "-3", 1);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 5), 5);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 5, /*min_value=*/0), 5);
  // 0 is below the default minimum but a value where the caller allows it
  // (serve_bench's MB_C10K_CONNS=0 skips the c10k stage).
  ::setenv("MB_TEST_ENV_INT", "0", 1);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 5), 5);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 10000, /*min_value=*/0), 0);
  ::setenv("MB_TEST_ENV_INT", "", 1);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 10000, /*min_value=*/0), 10000);
  ::unsetenv("MB_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 7, /*min_value=*/0), 7);
  EXPECT_EQ(EnvInt("MB_TEST_ENV_INT", 7), 7);
}

TEST(ExperimentsTest, NormalizePropagatesSettings) {
  ExperimentOptions options;
  options.num_adgroups = 42;
  options.folds = 4;
  options.seed = 77;
  options.Normalize();
  EXPECT_EQ(options.corpus.num_adgroups, 42);
  EXPECT_EQ(options.corpus.seed, 77u);
  EXPECT_EQ(options.pipeline.folds, 4);
}

TEST(ExperimentsTest, Fig3ProducesFiniteWeightsSomewhere) {
  ExperimentOptions options = TinyOptions();
  auto result = RunFig3(options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->weights.empty());
  int finite = 0;
  for (const auto& line : result->weights) {
    for (double w : line) finite += std::isnan(w) ? 0 : 1;
  }
  EXPECT_GT(finite, 5);
}

}  // namespace
}  // namespace microbrowse
