// Copyright 2026 The Microbrowse Authors
//
// Full-pipeline integration test mirroring the mbctl workflow:
// generate -> persist -> reload -> extract pairs -> build stats -> train ->
// persist model -> reload -> predict, checking consistency at every joint.

#include <gtest/gtest.h>

#include <cstdio>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/pipeline.h"

namespace microbrowse {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

TEST(EndToEndTest, FullWorkflowThroughSerialization) {
  // 1. Generate and persist a corpus.
  AdCorpusOptions corpus_options;
  corpus_options.num_adgroups = 400;
  corpus_options.seed = 1234;
  auto generated = GenerateAdCorpus(corpus_options);
  ASSERT_TRUE(generated.ok());
  const std::string corpus_path = TempPath("e2e_corpus.tsv");
  ASSERT_TRUE(SaveAdCorpus(generated->corpus, corpus_path).ok());

  // 2. Reload and extract the pair corpus.
  auto corpus = LoadAdCorpus(corpus_path);
  ASSERT_TRUE(corpus.ok());
  const PairCorpus pairs = ExtractSignificantPairs(*corpus, {});
  ASSERT_GT(pairs.pairs.size(), 200u);

  // 3. Phase one: statistics; persist + reload round trip.
  const FeatureStatsDb db = BuildFeatureStats(pairs, {});
  const std::string stats_path = TempPath("e2e_stats.tsv");
  ASSERT_TRUE(SaveFeatureStats(db, stats_path).ok());
  auto db2 = LoadFeatureStats(stats_path);
  ASSERT_TRUE(db2.ok());
  ASSERT_EQ(db2->size(), db.size());

  // 4. Phase two: train M6 and persist the model.
  const ClassifierConfig config = ClassifierConfig::M6();
  const CoupledDataset dataset = BuildClassifierDataset(pairs, *db2, config, 7);
  auto model = TrainSnippetClassifier(dataset, config);
  ASSERT_TRUE(model.ok());
  const std::string model_path = TempPath("e2e_model.txt");
  ASSERT_TRUE(
      SaveClassifier(*model, dataset.t_registry, dataset.p_registry, model_path).ok());

  // 5. Reload the model: predictions must be identical to the in-memory
  // ones for pairs drawn from the corpus.
  auto saved = LoadClassifier(model_path);
  ASSERT_TRUE(saved.ok());
  int checked = 0;
  for (size_t i = 0; i < pairs.pairs.size() && checked < 25; i += 17, ++checked) {
    const auto& pair = pairs.pairs[i];
    const double in_memory =
        PredictPairMargin(pair.r.snippet, pair.s.snippet, *db2, config, *model,
                          dataset.t_registry, dataset.p_registry);
    const double reloaded =
        PredictPairMargin(pair.r.snippet, pair.s.snippet, *db2, config, saved->model,
                          saved->t_registry, saved->p_registry);
    EXPECT_NEAR(in_memory, reloaded, 1e-6) << "pair " << i;
  }

  // 6. The reloaded model still predicts the training signal direction:
  // accuracy on the training pairs is well above chance.
  int correct = 0;
  for (const auto& pair : pairs.pairs) {
    const double margin =
        PredictPairMargin(pair.r.snippet, pair.s.snippet, *db2, config, saved->model,
                          saved->t_registry, saved->p_registry);
    correct += ((margin >= 0) == (pair.r.serve_weight > pair.s.serve_weight)) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / pairs.pairs.size(), 0.6);

  std::remove(corpus_path.c_str());
  std::remove(stats_path.c_str());
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace microbrowse
