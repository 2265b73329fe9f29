// Copyright 2026 The Microbrowse Authors

#include "microbrowse/ctr_predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/feature_keys.h"

namespace microbrowse {
namespace {

TEST(CtrPredictorTest, ScoresFollowTermWeights) {
  FeatureRegistry t_registry;
  const FeatureId good = t_registry.Intern(TermKey("good"), 0.0);
  const FeatureId bad = t_registry.Intern(TermKey("bad"), 0.0);
  FeatureRegistry p_registry;
  SnippetClassifierModel model;
  model.t_weights.resize(t_registry.size());
  model.t_weights[good] = 1.0;
  model.t_weights[bad] = -1.0;

  const CtrPredictor predictor(model, t_registry, p_registry);
  const Snippet good_snippet = Snippet::FromTokens({{"good"}});
  const Snippet bad_snippet = Snippet::FromTokens({{"bad"}});
  EXPECT_GT(predictor.Score(good_snippet), 0.0);
  EXPECT_LT(predictor.Score(bad_snippet), 0.0);
  EXPECT_GT(predictor.Score(good_snippet), predictor.Score(bad_snippet));
}

TEST(CtrPredictorTest, VisibilityWeightsPositions) {
  FeatureRegistry t_registry;
  const FeatureId good = t_registry.Intern(TermKey("good"), 0.0);
  FeatureRegistry p_registry;
  SnippetClassifierModel model;
  model.t_weights.resize(t_registry.size());
  model.t_weights[good] = 1.0;
  const CtrPredictor predictor(model, t_registry, p_registry);

  // Fallback curve: line 1 is far more visible than line 3.
  const Snippet early = Snippet::FromTokens({{"good"}, {}, {}});
  const Snippet late = Snippet::FromTokens({{}, {}, {"good"}});
  EXPECT_GT(predictor.Score(early), predictor.Score(late));
}

TEST(CtrPredictorTest, LearnedVisibilityOverridesFallback) {
  FeatureRegistry t_registry;
  const FeatureId good = t_registry.Intern(TermKey("good"), 0.0);
  FeatureRegistry p_registry;
  const FeatureId line0 = p_registry.Intern(TermPositionKey(PositionKey{0, 0}), 1.0);
  const FeatureId line2 = p_registry.Intern(TermPositionKey(PositionKey{2, 0}), 1.0);
  SnippetClassifierModel model;
  model.t_weights.resize(t_registry.size());
  model.t_weights[good] = 1.0;
  model.p_weights.resize(p_registry.size());
  // Learned weights INVERT the fallback: line 3 more visible than line 1.
  model.p_weights[line0] = 0.1;
  model.p_weights[line2] = 0.9;
  const CtrPredictor predictor(model, t_registry, p_registry);

  const Snippet early = Snippet::FromTokens({{"good"}, {}, {}});
  const Snippet late = Snippet::FromTokens({{}, {}, {"good"}});
  EXPECT_LT(predictor.Score(early), predictor.Score(late));
}

TEST(CtrPredictorTest, FallsBackToStatsDbForUnseenTerms) {
  FeatureRegistry t_registry;
  FeatureRegistry p_registry;
  SnippetClassifierModel model;
  FeatureStatsDb db;
  db.set_min_count(1);
  for (int i = 0; i < 8; ++i) db.AddObservation(TermKey("fresh"), +1);
  const CtrPredictor predictor(model, t_registry, p_registry, &db);
  EXPECT_GT(predictor.Score(Snippet::FromTokens({{"fresh"}})), 0.0);
}

TEST(CtrPredictorTest, RankOrdersByScore) {
  FeatureRegistry t_registry;
  const FeatureId a = t_registry.Intern(TermKey("a"), 0.0);
  const FeatureId b = t_registry.Intern(TermKey("b"), 0.0);
  const FeatureId c = t_registry.Intern(TermKey("c"), 0.0);
  FeatureRegistry p_registry;
  SnippetClassifierModel model;
  model.t_weights.resize(t_registry.size());
  model.t_weights[a] = 0.2;
  model.t_weights[b] = 0.9;
  model.t_weights[c] = -0.4;
  const CtrPredictor predictor(model, t_registry, p_registry);
  const std::vector<Snippet> snippets = {Snippet::FromTokens({{"a"}}),
                                         Snippet::FromTokens({{"b"}}),
                                         Snippet::FromTokens({{"c"}})};
  EXPECT_EQ(predictor.Rank(snippets), (std::vector<size_t>{1, 0, 2}));
}

TEST(CtrPredictorTest, RankCorrelatesWithTrueCtrOnSyntheticCorpus) {
  // End-to-end: train nothing, score straight from the stats database, and
  // check the ranking beats chance against the generator's true CTRs.
  AdCorpusOptions options;
  options.num_adgroups = 500;
  options.seed = 77;
  auto generated = GenerateAdCorpus(options);
  ASSERT_TRUE(generated.ok());
  const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
  const FeatureStatsDb db = BuildFeatureStats(pairs, {});
  SnippetClassifierModel empty_model;
  FeatureRegistry t_registry, p_registry;
  const CtrPredictor predictor(empty_model, t_registry, p_registry, &db);

  int concordant = 0, total = 0;
  for (const auto& group : generated->corpus.adgroups) {
    for (size_t i = 0; i + 1 < group.creatives.size(); ++i) {
      for (size_t j = i + 1; j < group.creatives.size(); ++j) {
        const double score_diff = predictor.Score(group.creatives[i].snippet) -
                                  predictor.Score(group.creatives[j].snippet);
        const double ctr_diff =
            group.creatives[i].true_ctr - group.creatives[j].true_ctr;
        if (score_diff == 0.0) continue;
        ++total;
        concordant += (score_diff > 0) == (ctr_diff > 0) ? 1 : 0;
      }
    }
  }
  ASSERT_GT(total, 300);
  EXPECT_GT(static_cast<double>(concordant) / total, 0.55);
}

// --- FitExaminationCurve

TEST(FitExaminationCurveTest, RecoversSyntheticGrid) {
  // Build a grid from a known curve and fit it back.
  const double decay = 0.8;
  const std::vector<double> bases = {0.9, 0.6, 0.2};
  std::vector<std::vector<double>> grid(3, std::vector<double>(6));
  for (size_t l = 0; l < 3; ++l) {
    for (size_t p = 0; p < 6; ++p) grid[l][p] = bases[l] * std::pow(decay, p);
  }
  auto curve = FitExaminationCurve(grid, /*peak=*/0.9);
  ASSERT_TRUE(curve.ok());
  EXPECT_NEAR(curve->pos_decay(), decay, 0.02);
  // Line ordering preserved and normalised to the peak.
  EXPECT_NEAR(curve->line_bases()[0], 0.9, 0.02);
  EXPECT_GT(curve->line_bases()[0], curve->line_bases()[1]);
  EXPECT_GT(curve->line_bases()[1], curve->line_bases()[2]);
}

TEST(FitExaminationCurveTest, HandlesNansAndNegatives) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> grid = {
      {0.9, nan, 0.58, -0.3},  // Negative weights are ignored.
      {0.45, 0.36, nan, nan},
  };
  auto curve = FitExaminationCurve(grid);
  ASSERT_TRUE(curve.ok());
  EXPECT_GT(curve->line_bases()[0], curve->line_bases()[1]);
}

TEST(FitExaminationCurveTest, RisingWeightsGiveAFlatCurveAtEachLinesGeometricMean) {
  // Weights that rise with position clamp the decay to 1, so the curve is
  // flat within a line, and each line's base must be the intercept for that
  // slope: its geometric-mean weight. The lines cover different positions,
  // so intercepts taken with the unclamped (rising) slope would skew the
  // bases by each line's mean position.
  const std::vector<std::vector<double>> grid = {
      {0.30, 0.36, 0.42, 0.48, 0.54, 0.60},
      {0.40, 0.50},
      {0.20, 0.25, 0.30, 0.35},
  };
  const double peak = 0.9;
  auto curve = FitExaminationCurve(grid, peak);
  ASSERT_TRUE(curve.ok());
  EXPECT_EQ(curve->pos_decay(), 1.0);
  std::vector<double> geometric_means;
  for (const std::vector<double>& line : grid) {
    double log_sum = 0.0;
    for (double w : line) log_sum += std::log(w);
    geometric_means.push_back(std::exp(log_sum / static_cast<double>(line.size())));
  }
  const double max_mean = *std::max_element(geometric_means.begin(), geometric_means.end());
  ASSERT_EQ(curve->line_bases().size(), grid.size());
  for (size_t l = 0; l < grid.size(); ++l) {
    EXPECT_NEAR(curve->line_bases()[l], peak * geometric_means[l] / max_mean, 1e-12)
        << "line " << l;
    EXPECT_EQ(curve->Probability(static_cast<int>(l), 0),
              curve->Probability(static_cast<int>(l), 5))
        << "line " << l;
  }
}

TEST(FitExaminationCurveTest, TooFewPointsRejected) {
  EXPECT_FALSE(FitExaminationCurve({{0.5}}).ok());
  EXPECT_FALSE(FitExaminationCurve({}).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FitExaminationCurve({{nan, nan}, {0.3, nan}}).ok());
}

}  // namespace
}  // namespace microbrowse
