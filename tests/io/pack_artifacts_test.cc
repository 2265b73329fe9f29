// Copyright 2026 The Microbrowse Authors
//
// Parity tests for the mbpack artifact schemas (io/pack_artifacts.h): a
// stats database or classifier loaded from a pack must be observationally
// *bitwise* identical to the same artifact loaded from TSV — same feature
// ids, same counts, same log-odds, same pairwise margins — because the
// serving stack treats the two formats as interchangeable behind one
// interface. Also covers the format sniff, pack-inspect rendering and the
// reload fingerprint fast path.

#include "io/pack_artifacts.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/atomic_file.h"

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"

namespace microbrowse {
namespace {

/// Trains one small M6 artifact set shared by every test in the suite
/// (everything below only reads it).
class PackArtifactsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/pack_artifacts_test_" +
                           std::to_string(::getpid()));
    ASSERT_TRUE(CreateDirectories(*dir_).ok());

    AdCorpusOptions corpus_options;
    corpus_options.num_adgroups = 60;
    corpus_options.seed = 7;
    auto generated = GenerateAdCorpus(corpus_options);
    ASSERT_TRUE(generated.ok());
    corpus_ = new AdCorpus(generated->corpus);
    const PairCorpus pairs = ExtractSignificantPairs(*corpus_, {});
    db_ = new FeatureStatsDb(BuildFeatureStats(pairs, {}));
    config_ = new ClassifierConfig(ClassifierConfig::M6());
    const CoupledDataset dataset = BuildClassifierDataset(pairs, *db_, *config_, 7);
    auto model = TrainSnippetClassifier(dataset, *config_);
    ASSERT_TRUE(model.ok());

    ASSERT_TRUE(SaveFeatureStats(*db_, *dir_ + "/stats.tsv").ok());
    ASSERT_TRUE(SaveClassifier(*model, dataset.t_registry, dataset.p_registry,
                               *dir_ + "/model.txt")
                    .ok());
    // Packs are converted *from the TSV artifacts* (the mbctl pack flow):
    // TSV text is the interchange truth, so the pack must carry the doubles
    // as the TSV loader parses them — that is what makes the two read paths
    // bitwise-identical downstream.
    auto tsv_db = LoadFeatureStats(*dir_ + "/stats.tsv");
    auto tsv_model = LoadClassifier(*dir_ + "/model.txt");
    ASSERT_TRUE(tsv_db.ok());
    ASSERT_TRUE(tsv_model.ok());
    ASSERT_TRUE(SaveStatsPack(*tsv_db, *dir_ + "/stats.mbp").ok());
    ASSERT_TRUE(SaveClassifierPack(tsv_model->model, tsv_model->t_registry,
                                   tsv_model->p_registry, *dir_ + "/model.mbp")
                    .ok());
  }

  static void TearDownTestSuite() {
    delete config_;
    delete db_;
    delete corpus_;
    delete dir_;
  }

  static const std::string* dir_;
  static const AdCorpus* corpus_;
  static const FeatureStatsDb* db_;
  static const ClassifierConfig* config_;
};

const std::string* PackArtifactsTest::dir_ = nullptr;
const AdCorpus* PackArtifactsTest::corpus_ = nullptr;
const FeatureStatsDb* PackArtifactsTest::db_ = nullptr;
const ClassifierConfig* PackArtifactsTest::config_ = nullptr;

TEST_F(PackArtifactsTest, StatsPackIsBitwiseIdenticalToHeapDb) {
  auto packed = LoadStatsPack(*dir_ + "/stats.mbp");
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->size(), db_->size());
  EXPECT_EQ(packed->base_size(), db_->size());
  EXPECT_EQ(packed->smoothing(), db_->smoothing());
  EXPECT_EQ(packed->min_count(), db_->min_count());

  // Every key, both directions; counts and derived statistics must match to
  // the last bit (the records are the same bytes, just mmap'd).
  size_t visited = 0;
  db_->ForEach([&](std::string_view key, const FeatureStat& stat) {
    ++visited;
    const FeatureStat* found = packed->Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(found->positive, stat.positive) << key;
    EXPECT_EQ(found->total, stat.total) << key;
    EXPECT_EQ(packed->LogOdds(key), db_->LogOdds(key)) << key;
  });
  EXPECT_EQ(visited, db_->size());

  size_t pack_visited = 0;
  packed->ForEach([&](std::string_view key, const FeatureStat& stat) {
    ++pack_visited;
    const FeatureStat* original = db_->Find(key);
    ASSERT_NE(original, nullptr) << key;
    EXPECT_EQ(original->positive, stat.positive) << key;
  });
  EXPECT_EQ(pack_visited, db_->size());

  EXPECT_EQ(packed->Find("t:never such a key"), nullptr);
  EXPECT_EQ(packed->LogOdds("t:never such a key"), 0.0);
}

TEST_F(PackArtifactsTest, PackBackedDbRoundTripsThroughTsv) {
  // SaveFeatureStats must see the base layer: a pack-loaded database written
  // back to TSV has to reproduce the original TSV byte for byte.
  auto packed = LoadStatsPack(*dir_ + "/stats.mbp");
  ASSERT_TRUE(packed.ok());
  const std::string resaved = *dir_ + "/stats_resaved.tsv";
  ASSERT_TRUE(SaveFeatureStats(*packed, resaved).ok());
  std::ifstream a(*dir_ + "/stats.tsv", std::ios::binary);
  std::ifstream b(resaved, std::ios::binary);
  std::ostringstream buf_a, buf_b;
  buf_a << a.rdbuf();
  buf_b << b.rdbuf();
  EXPECT_EQ(buf_a.str(), buf_b.str());
}

TEST_F(PackArtifactsTest, ClassifierPackAssignsIdenticalFeatureIds) {
  auto tsv = LoadClassifier(*dir_ + "/model.txt");
  auto packed = LoadClassifierPack(*dir_ + "/model.mbp");
  ASSERT_TRUE(tsv.ok());
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();

  EXPECT_EQ(packed->model.bias, tsv->model.bias);
  ASSERT_EQ(packed->model.t_weights, tsv->model.t_weights);  // Bitwise: double ==.
  ASSERT_EQ(packed->model.p_weights, tsv->model.p_weights);

  ASSERT_EQ(packed->t_registry.size(), tsv->t_registry.size());
  ASSERT_EQ(packed->p_registry.size(), tsv->p_registry.size());
  for (size_t id = 0; id < tsv->t_registry.size(); ++id) {
    const std::string_view name = tsv->t_registry.NameOf(static_cast<FeatureId>(id));
    EXPECT_EQ(packed->t_registry.NameOf(static_cast<FeatureId>(id)), name);
    EXPECT_EQ(packed->t_registry.Find(name), static_cast<FeatureId>(id)) << name;
  }
  for (size_t id = 0; id < tsv->p_registry.size(); ++id) {
    const std::string_view name = tsv->p_registry.NameOf(static_cast<FeatureId>(id));
    EXPECT_EQ(packed->p_registry.Find(name), static_cast<FeatureId>(id)) << name;
  }
  EXPECT_EQ(packed->t_registry.InitialWeights(), tsv->t_registry.InitialWeights());
}

TEST_F(PackArtifactsTest, ScoringIsBitwiseIdenticalAcrossFormats) {
  auto tsv_model = LoadClassifier(*dir_ + "/model.txt");
  auto pack_model = LoadClassifierPack(*dir_ + "/model.mbp");
  auto pack_stats = LoadStatsPack(*dir_ + "/stats.mbp");
  ASSERT_TRUE(tsv_model.ok());
  ASSERT_TRUE(pack_model.ok());
  ASSERT_TRUE(pack_stats.ok());

  int compared = 0;
  for (const auto& adgroup : corpus_->adgroups) {
    for (size_t i = 0; i + 1 < adgroup.creatives.size() && compared < 50; i += 2) {
      const Snippet& a = adgroup.creatives[i].snippet;
      const Snippet& b = adgroup.creatives[i + 1].snippet;
      const double via_tsv = PredictPairMargin(a, b, *db_, *config_, tsv_model->model,
                                               tsv_model->t_registry, tsv_model->p_registry);
      const double via_pack =
          PredictPairMargin(a, b, *pack_stats, *config_, pack_model->model,
                            pack_model->t_registry, pack_model->p_registry);
      // Bitwise, not approximate: the two paths must run the same floating-
      // point operations on the same values in the same order.
      EXPECT_EQ(via_tsv, via_pack);
      ++compared;
    }
  }
  EXPECT_GE(compared, 10);
}

TEST_F(PackArtifactsTest, SniffDistinguishesFormats) {
  auto pack = IsPackFile(*dir_ + "/stats.mbp");
  auto tsv = IsPackFile(*dir_ + "/stats.tsv");
  ASSERT_TRUE(pack.ok());
  ASSERT_TRUE(tsv.ok());
  EXPECT_TRUE(*pack);
  EXPECT_FALSE(*tsv);
  EXPECT_FALSE(IsPackFile(*dir_ + "/no_such_file").ok());
}

TEST_F(PackArtifactsTest, DescribePackRendersBothSchemas) {
  auto stats = DescribePack(*dir_ + "/stats.mbp");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("feature-statistics database"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("file checksum"), std::string::npos);

  auto model = DescribePack(*dir_ + "/model.mbp");
  ASSERT_TRUE(model.ok());
  EXPECT_NE(model->find("snippet classifier"), std::string::npos) << *model;

  EXPECT_FALSE(DescribePack(*dir_ + "/stats.tsv").ok());
}

TEST_F(PackArtifactsTest, FingerprintTracksContentForBothFormats) {
  for (const std::string name : {"/stats.tsv", "/stats.mbp"}) {
    auto first = FileChecksum(*dir_ + name);
    auto again = FileChecksum(*dir_ + name);
    ASSERT_TRUE(first.ok()) << name;
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*first, *again) << name;
  }
  auto stats = FileChecksum(*dir_ + "/stats.mbp");
  auto model = FileChecksum(*dir_ + "/model.mbp");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(model.ok());
  EXPECT_NE(*stats, *model);
  EXPECT_FALSE(FileChecksum(*dir_ + "/no_such_file").ok());
}

}  // namespace
}  // namespace microbrowse
