// Copyright 2026 The Microbrowse Authors
//
// Tests for the snippet classifier: configuration factories, feature
// extraction invariants (most importantly antisymmetry under pair
// swapping), coupled training, and the CV pipeline.

#include "microbrowse/classifier.h"

#include <gtest/gtest.h>

#include <cmath>

#include "corpus/generator.h"
#include "microbrowse/feature_keys.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/pipeline.h"

namespace microbrowse {
namespace {

// --- Config factories

TEST(ClassifierConfigTest, PaperModelFlags) {
  const auto m1 = ClassifierConfig::M1();
  EXPECT_TRUE(m1.use_term_features);
  EXPECT_FALSE(m1.use_rewrite_features);
  EXPECT_FALSE(m1.use_position);

  const auto m2 = ClassifierConfig::M2();
  EXPECT_TRUE(m2.use_term_features);
  EXPECT_FALSE(m2.use_rewrite_features);
  EXPECT_TRUE(m2.use_position);

  const auto m3 = ClassifierConfig::M3();
  EXPECT_FALSE(m3.use_term_features);
  EXPECT_TRUE(m3.use_rewrite_features);
  EXPECT_FALSE(m3.use_position);

  const auto m4 = ClassifierConfig::M4();
  EXPECT_TRUE(m4.use_rewrite_features);
  EXPECT_TRUE(m4.use_position);

  const auto m5 = ClassifierConfig::M5();
  EXPECT_TRUE(m5.use_term_features);
  EXPECT_TRUE(m5.use_rewrite_features);
  EXPECT_FALSE(m5.use_position);

  const auto m6 = ClassifierConfig::M6();
  EXPECT_TRUE(m6.use_term_features);
  EXPECT_TRUE(m6.use_rewrite_features);
  EXPECT_TRUE(m6.use_position);

  const auto all = ClassifierConfig::AllPaperModels();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "M1");
  EXPECT_EQ(all[5].name, "M6");
}

// --- Extraction invariants

Snippet CreativeA() {
  return Snippet::FromTokens(
      {{"brand"}, {"find", "cheap", "flights"}, {"great", "rates", "20%", "off"}});
}

Snippet CreativeB() {
  // Same-length substitutions at identical positions: no content is
  // displaced, so the diff contains no order-symmetric shift rewrites and
  // exact score antisymmetry must hold for every configuration.
  return Snippet::FromTokens(
      {{"brand"}, {"book", "best", "flights"}, {"great", "rates", "10%", "off"}});
}

/// Interns both presentation orders and checks that the pair margin under
/// any weight assignment flips sign exactly.
class ExtractionAntisymmetryTest : public ::testing::TestWithParam<int> {};

TEST_P(ExtractionAntisymmetryTest, ScoreFlipsUnderSwap) {
  const auto configs = ClassifierConfig::AllPaperModels();
  const ClassifierConfig& config = configs[GetParam()];
  const FeatureStatsDb db;  // Empty: neutral warm starts.

  FeatureRegistry t_registry, p_registry;
  std::vector<CoupledOccurrence> forward, backward;
  ExtractPairOccurrences(CreativeA(), CreativeB(), db, config, &t_registry, &p_registry,
                         &forward);
  ExtractPairOccurrences(CreativeB(), CreativeA(), db, config, &t_registry, &p_registry,
                         &backward);

  // Score both orders under an arbitrary deterministic weight assignment.
  SnippetClassifierModel model;
  model.t_weights.resize(t_registry.size());
  for (size_t i = 0; i < model.t_weights.size(); ++i) {
    model.t_weights[i] = 0.1 * static_cast<double>((i * 7) % 13) - 0.5;
  }
  model.p_weights.resize(p_registry.size());
  for (size_t i = 0; i < model.p_weights.size(); ++i) {
    model.p_weights[i] = 0.05 * static_cast<double>((i * 3) % 11) + 0.5;
  }
  model.bias = 0.0;

  const double forward_margin = PredictPairMargin(CreativeA(), CreativeB(), db, config, model,
                                                  t_registry, p_registry);
  const double backward_margin = PredictPairMargin(CreativeB(), CreativeA(), db, config, model,
                                                   t_registry, p_registry);
  EXPECT_NEAR(forward_margin, -backward_margin, 1e-9) << config.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ExtractionAntisymmetryTest, ::testing::Range(0, 6));

TEST(ExtractionTest, IdenticalPairHasNoNetSignal) {
  const FeatureStatsDb db;
  const ClassifierConfig config = ClassifierConfig::M1();
  FeatureRegistry t_registry, p_registry;
  std::vector<CoupledOccurrence> occurrences;
  ExtractPairOccurrences(CreativeA(), CreativeA(), db, config, &t_registry, &p_registry,
                         &occurrences);
  // Net contribution per feature is zero.
  std::vector<double> net(t_registry.size(), 0.0);
  for (const auto& occ : occurrences) net[occ.t] += occ.sign;
  for (double v : net) EXPECT_EQ(v, 0.0);
}

TEST(ExtractionTest, PositionlessConfigsNeverTouchPRegistry) {
  const FeatureStatsDb db;
  for (const auto& config : {ClassifierConfig::M1(), ClassifierConfig::M3(),
                             ClassifierConfig::M5()}) {
    FeatureRegistry t_registry, p_registry;
    std::vector<CoupledOccurrence> occurrences;
    ExtractPairOccurrences(CreativeA(), CreativeB(), db, config, &t_registry, &p_registry,
                           &occurrences);
    EXPECT_TRUE(p_registry.empty()) << config.name;
    for (const auto& occ : occurrences) {
      EXPECT_EQ(occ.p, kInvalidFeatureId) << config.name;
    }
  }
}

TEST(ExtractionTest, WarmStartComesFromStatsDb) {
  FeatureStatsDb db;
  db.set_min_count(1);
  for (int i = 0; i < 10; ++i) db.AddObservation("t:cheap", +1);
  ClassifierConfig config = ClassifierConfig::M1();
  FeatureRegistry t_registry, p_registry;
  std::vector<CoupledOccurrence> occurrences;
  ExtractPairOccurrences(CreativeA(), CreativeB(), db, config, &t_registry, &p_registry,
                         &occurrences);
  const FeatureId id = t_registry.Find("t:cheap");
  ASSERT_NE(id, kInvalidFeatureId);
  EXPECT_NEAR(t_registry.InitialWeightOf(id), db.LogOdds("t:cheap"), 1e-12);
  EXPECT_GT(t_registry.InitialWeightOf(id), 0.0);
}

TEST(ExtractionTest, InitFromStatsCanBeDisabled) {
  FeatureStatsDb db;
  db.set_min_count(1);
  for (int i = 0; i < 10; ++i) db.AddObservation("t:cheap", +1);
  ClassifierConfig config = ClassifierConfig::M1();
  config.init_from_stats = false;
  FeatureRegistry t_registry, p_registry;
  std::vector<CoupledOccurrence> occurrences;
  ExtractPairOccurrences(CreativeA(), CreativeB(), db, config, &t_registry, &p_registry,
                         &occurrences);
  const FeatureId id = t_registry.Find("t:cheap");
  ASSERT_NE(id, kInvalidFeatureId);
  EXPECT_EQ(t_registry.InitialWeightOf(id), 0.0);
}

// --- Training on a synthetic-but-transparent task

/// Builds a pair corpus where the creative containing "winner" always has
/// the higher serve weight and the one containing "loser" the lower.
PairCorpus SignalCorpus(int n) {
  PairCorpus corpus;
  Rng rng(17);
  const std::vector<std::string> fillers = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < n; ++i) {
    SnippetPair pair;
    pair.adgroup_id = i;
    pair.keyword_id = i % 7;
    const std::string& filler = fillers[rng.NextIndex(fillers.size())];
    pair.r.snippet = Snippet::FromTokens({{"brand"}, {"winner", filler}});
    pair.r.serve_weight = 1.3;
    pair.s.snippet = Snippet::FromTokens({{"brand"}, {"loser", filler}});
    pair.s.serve_weight = 0.7;
    corpus.pairs.push_back(pair);
  }
  return corpus;
}

TEST(TrainSnippetClassifierTest, LearnsObviousSignal) {
  const PairCorpus corpus = SignalCorpus(400);
  BuildStatsOptions stats_options;
  stats_options.min_count = 2;
  const FeatureStatsDb db = BuildFeatureStats(corpus, stats_options);
  for (const auto& config : ClassifierConfig::AllPaperModels()) {
    const CoupledCsr csr = FlattenCoupledDataset(BuildClassifierDataset(corpus, db, config, 5));
    auto model = TrainSnippetClassifier(csr, config);
    ASSERT_TRUE(model.ok()) << config.name;
    int correct = 0;
    for (size_t row = 0; row < csr.size(); ++row) {
      correct += ((model->ScoreRow(csr, row) >= 0.0) == (csr.labels[row] > 0.5)) ? 1 : 0;
    }
    EXPECT_GT(static_cast<double>(correct) / csr.size(), 0.95) << config.name;
  }
}

TEST(TrainSnippetClassifierTest, EmptyDatasetFails) {
  CoupledDataset dataset;
  EXPECT_FALSE(TrainSnippetClassifier(dataset, ClassifierConfig::M1()).ok());
}

TEST(TrainSnippetClassifierTest, TrainOnSubsetOnly) {
  const PairCorpus corpus = SignalCorpus(100);
  const FeatureStatsDb db = BuildFeatureStats(corpus, {});
  const ClassifierConfig config = ClassifierConfig::M1();
  const CoupledDataset dataset = BuildClassifierDataset(corpus, db, config, 5);
  std::vector<size_t> train = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto model = TrainSnippetClassifier(dataset, config, train);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->t_weights.size(), dataset.t_registry.size());
}

TEST(BuildClassifierDatasetTest, LabelsAreBalancedByRandomSwap) {
  const PairCorpus corpus = SignalCorpus(1000);
  const FeatureStatsDb db;
  const CoupledDataset dataset =
      BuildClassifierDataset(corpus, db, ClassifierConfig::M1(), 9);
  int positives = 0;
  for (const auto& example : dataset.examples) positives += example.label > 0.5 ? 1 : 0;
  EXPECT_GT(positives, 420);
  EXPECT_LT(positives, 580);
}

TEST(BuildClassifierDatasetTest, DeterministicForSeed) {
  const PairCorpus corpus = SignalCorpus(50);
  const FeatureStatsDb db;
  const auto a = BuildClassifierDataset(corpus, db, ClassifierConfig::M6(), 9);
  const auto b = BuildClassifierDataset(corpus, db, ClassifierConfig::M6(), 9);
  ASSERT_EQ(a.examples.size(), b.examples.size());
  for (size_t i = 0; i < a.examples.size(); ++i) {
    EXPECT_EQ(a.examples[i].label, b.examples[i].label);
    ASSERT_EQ(a.examples[i].occurrences.size(), b.examples[i].occurrences.size());
  }
}

/// A corpus where creatives containing "winner" beat creatives containing
/// "loser", with the deciding phrase on either content line; "meh" is
/// neutral.
PairCorpus LayoutSignalCorpus(int n) {
  PairCorpus corpus;
  Rng rng(21);
  for (int i = 0; i < n; ++i) {
    SnippetPair pair;
    pair.adgroup_id = i;
    pair.keyword_id = i % 5;
    const bool vary_layout = rng.Bernoulli(0.5);
    pair.r.snippet = vary_layout
                         ? Snippet::FromTokens({{"brand"}, {"winner", "stuff"}, {"meh"}})
                         : Snippet::FromTokens({{"brand"}, {"meh"}, {"winner", "stuff"}});
    pair.r.serve_weight = 1.25;
    pair.s.snippet = vary_layout
                         ? Snippet::FromTokens({{"brand"}, {"loser", "stuff"}, {"meh"}})
                         : Snippet::FromTokens({{"brand"}, {"meh"}, {"loser", "stuff"}});
    pair.s.serve_weight = 0.75;
    corpus.pairs.push_back(pair);
  }
  return corpus;
}

TEST(PredictPairMarginTest, AgreesWithTrainingSignal) {
  const ClassifierConfig config = ClassifierConfig::M6();
  const PairCorpus corpus = LayoutSignalCorpus(300);
  BuildStatsOptions stats_options;
  stats_options.min_count = 2;
  const FeatureStatsDb db = BuildFeatureStats(corpus, stats_options);
  const CoupledDataset dataset = BuildClassifierDataset(corpus, db, config, 3);
  auto model = TrainSnippetClassifier(dataset, config);
  ASSERT_TRUE(model.ok());
  const Snippet winner = Snippet::FromTokens({{"brand"}, {"winner", "stuff"}, {"meh"}});
  const Snippet loser = Snippet::FromTokens({{"brand"}, {"loser", "stuff"}, {"meh"}});
  EXPECT_GT(PredictPairMargin(winner, loser, db, config, *model, dataset.t_registry,
                              dataset.p_registry),
            0.5);
  EXPECT_LT(PredictPairMargin(loser, winner, db, config, *model, dataset.t_registry,
                              dataset.p_registry),
            -0.5);
}

// --- Pipeline

TEST(PipelineTest, CvOnSignalCorpusIsNearPerfect) {
  const PairCorpus corpus = SignalCorpus(300);
  PipelineOptions options;
  options.folds = 3;
  options.seed = 4;
  options.group_folds_by_adgroup = true;
  auto report = RunPairClassificationCv(corpus, ClassifierConfig::M1(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->metrics.accuracy(), 0.95);
  EXPECT_GT(report->auc, 0.98);
  EXPECT_EQ(report->metrics.total(), 300);
  EXPECT_GT(report->num_t_features, 0u);
}

TEST(PipelineTest, EmptyCorpusFails) {
  PairCorpus corpus;
  EXPECT_FALSE(RunPairClassificationCv(corpus, ClassifierConfig::M1(), {}).ok());
}

TEST(PipelineTest, MultiThreadedCvMatchesSingleThreaded) {
  const PairCorpus corpus = SignalCorpus(240);
  PipelineOptions single;
  single.folds = 4;
  single.seed = 12;
  PipelineOptions multi = single;
  multi.num_threads = 3;
  auto a = RunPairClassificationCv(corpus, ClassifierConfig::M6(), single);
  auto b = RunPairClassificationCv(corpus, ClassifierConfig::M6(), multi);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.true_positives, b->metrics.true_positives);
  EXPECT_EQ(a->metrics.false_positives, b->metrics.false_positives);
  EXPECT_DOUBLE_EQ(a->auc, b->auc);
}

TEST(PipelineTest, PerFoldStatsAlsoWorks) {
  const PairCorpus corpus = SignalCorpus(200);
  PipelineOptions options;
  options.folds = 2;
  options.per_fold_stats = true;
  auto report = RunPairClassificationCv(corpus, ClassifierConfig::M1(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->metrics.accuracy(), 0.9);
}

TEST(PipelineTest, LearnPositionWeightsRequiresPositionConfig) {
  const PairCorpus corpus = SignalCorpus(50);
  EXPECT_FALSE(LearnPositionWeights(corpus, ClassifierConfig::M1(), {}).ok());
}

TEST(PipelineTest, LearnPositionWeightsProducesGrid) {
  const PairCorpus corpus = SignalCorpus(100);
  ClassifierConfig config = ClassifierConfig::M2();
  config.term_position_conjunction = false;  // Coupled factor: standalone P.
  auto report = LearnPositionWeights(corpus, config, {});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->term_position_weights.size(), static_cast<size_t>(kMaxLineBucket + 1));
  // Line 1 position 0 occurs in every pair ("winner"/"loser"), so it must
  // have a (finite) learned weight.
  EXPECT_FALSE(std::isnan(report->term_position_weights[1][0]));
}

}  // namespace
}  // namespace microbrowse
