// Copyright 2026 The Microbrowse Authors
//
// Differential test wall for the pair scorer: the read-only
// PredictPairMargin must return exactly (==, not near) the margin of the
// interning reference (scoring_reference.h) for every ordered sibling pair
// of a seeded training corpus and of a held-out corpus (whose pairs carry
// features the registries never saw), under the paper's six models, for
// bundles reloaded from TSV and from mbpack artifacts, and for a model
// whose weight vectors are shorter than its registries (features interned
// after training). Held-out pairs reach T and P features the registries
// lack, so the scorer's statistics fallbacks, including that of its
// per-pair position table, are compared too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <ios>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "scoring_reference.h"

namespace microbrowse {
namespace {

/// Every ordered pair of distinct creatives within each adgroup.
std::vector<std::pair<Snippet, Snippet>> OrderedSiblingPairs(const AdCorpus& corpus) {
  std::vector<std::pair<Snippet, Snippet>> pairs;
  for (const AdGroup& group : corpus.adgroups) {
    for (const Creative& r : group.creatives) {
      for (const Creative& s : group.creatives) {
        if (&r != &s) pairs.emplace_back(r.snippet, s.snippet);
      }
    }
  }
  return pairs;
}

AdCorpus Generate(int adgroups, uint64_t seed) {
  AdCorpusOptions options;
  options.num_adgroups = adgroups;
  options.seed = seed;
  auto generated = GenerateAdCorpus(options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return generated.ok() ? std::move(generated->corpus) : AdCorpus{};
}

/// The training corpus, its pair corpus and statistics (heap, TSV and
/// pack), and the held-out pairs, shared by every configuration. Models
/// train on only the first half of the pairs the statistics were built
/// from, so the rest carry features the registries lack but the database
/// warm-starts.
struct Corpora {
  PairCorpus training;
  PairCorpus model_training;
  FeatureStatsDb db;
  FeatureStatsDb tsv_db;
  FeatureStatsDb pack_db;
  std::vector<std::pair<Snippet, Snippet>> seen_pairs;
  std::vector<std::pair<Snippet, Snippet>> held_out_pairs;
  std::string dir;
};

const Corpora& SharedCorpora() {
  static const Corpora* corpora = [] {
    auto* out = new Corpora;
    const AdCorpus training = Generate(60, 41);
    out->training = ExtractSignificantPairs(training, {});
    out->db = BuildFeatureStats(out->training, {});
    out->model_training.pairs.assign(
        out->training.pairs.begin(),
        out->training.pairs.begin() + static_cast<std::ptrdiff_t>(out->training.pairs.size() / 2));
    out->seen_pairs = OrderedSiblingPairs(training);
    out->held_out_pairs = OrderedSiblingPairs(Generate(40, 97));
    out->dir = ::testing::TempDir() + "/scoring_differential_" + std::to_string(::getpid());
    EXPECT_TRUE(CreateDirectories(out->dir).ok());
    EXPECT_TRUE(SaveFeatureStats(out->db, out->dir + "/stats.tsv").ok());
    EXPECT_TRUE(SaveStatsPack(out->db, out->dir + "/stats.mbpack").ok());
    auto tsv = LoadFeatureStats(out->dir + "/stats.tsv");
    auto pack = LoadStatsPack(out->dir + "/stats.mbpack");
    std::filesystem::remove_all(out->dir);  // The loaded pack keeps its mapping.
    if (!tsv.ok() || !pack.ok()) {
      ADD_FAILURE() << "reloading the statistics failed";
      return out;
    }
    out->tsv_db = std::move(*tsv);
    out->pack_db = std::move(*pack);
    return out;
  }();
  return *corpora;
}

/// One scoring setup: a statistics database plus a model and its
/// registries.
struct Bundle {
  std::string name;
  const FeatureStatsDb* db = nullptr;
  SavedClassifier classifier;
};

struct NamedConfig {
  std::string name;
  ClassifierConfig config;
};

void PrintTo(const NamedConfig& named, std::ostream* out) { *out << named.name; }

std::vector<NamedConfig> Configs() {
  std::vector<NamedConfig> configs;
  for (const ClassifierConfig& config : ClassifierConfig::AllPaperModels()) {
    configs.push_back({config.name, config});
  }
  return configs;
}

/// Trains `config` on the shared corpus and returns it as every bundle
/// kind: reloaded from TSV, reloaded from mbpack, and in memory with the
/// trained weight vectors cut to half their registries' length.
std::vector<Bundle> Bundles(const NamedConfig& named) {
  const Corpora& corpora = SharedCorpora();
  const CoupledDataset dataset =
      BuildClassifierDataset(corpora.model_training, corpora.db, named.config, 5);
  auto model = TrainSnippetClassifier(dataset, named.config);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return {};
  EXPECT_TRUE(CreateDirectories(corpora.dir).ok());
  const std::string stem = corpora.dir + "/" + named.name;
  EXPECT_TRUE(
      SaveClassifier(*model, dataset.t_registry, dataset.p_registry, stem + ".txt").ok());
  EXPECT_TRUE(
      SaveClassifierPack(*model, dataset.t_registry, dataset.p_registry, stem + ".mbpack")
          .ok());
  auto tsv = LoadClassifier(stem + ".txt");
  auto pack = LoadClassifierPack(stem + ".mbpack");
  EXPECT_TRUE(tsv.ok() && pack.ok());
  if (!tsv.ok() || !pack.ok()) return {};
  std::filesystem::remove_all(corpora.dir);  // The loaded pack keeps its mapping.

  Bundle half{"half_length", &corpora.db, {}};
  half.classifier.model = *model;
  half.classifier.model.t_weights.resize(dataset.t_registry.size() / 2);
  half.classifier.model.p_weights.resize(dataset.p_registry.size() / 2);
  half.classifier.t_registry = dataset.t_registry;
  half.classifier.p_registry = dataset.p_registry;

  std::vector<Bundle> bundles;
  bundles.push_back({"tsv", &corpora.tsv_db, std::move(*tsv)});
  bundles.push_back({"pack", &corpora.pack_db, std::move(*pack)});
  bundles.push_back(std::move(half));
  return bundles;
}

class ScorerDifferentialTest : public ::testing::TestWithParam<NamedConfig> {};

TEST_P(ScorerDifferentialTest, MarginsEqualTheInterningReference) {
  const Corpora& corpora = SharedCorpora();
  ASSERT_GT(corpora.seen_pairs.size(), 200u);
  ASSERT_GT(corpora.held_out_pairs.size(), 100u);
  const ClassifierConfig& config = GetParam().config;
  const std::vector<Bundle> bundles = Bundles(GetParam());
  ASSERT_EQ(bundles.size(), 3u);
  for (const Bundle& bundle : bundles) {
    const SavedClassifier& c = bundle.classifier;
    size_t compared = 0;
    size_t mismatches = 0;
    // A held-out pair carried a T feature the registry lacks, and one
    // carried a P feature the registry lacks (the statistics fallback of
    // the scorer's per-pair position table).
    bool saw_unseen = false;
    bool saw_unseen_p = false;
    for (const auto* pairs : {&corpora.seen_pairs, &corpora.held_out_pairs}) {
      for (const auto& [first, second] : *pairs) {
        const double want = ReferencePredictPairMargin(first, second, *bundle.db, config,
                                                       c.model, c.t_registry, c.p_registry);
        const double got = PredictPairMargin(first, second, *bundle.db, config, c.model,
                                             c.t_registry, c.p_registry);
        ++compared;
        if (pairs == &corpora.held_out_pairs && !(saw_unseen && saw_unseen_p)) {
          FeatureRegistry t_copy = c.t_registry;
          FeatureRegistry p_copy = c.p_registry;
          std::vector<CoupledOccurrence> occurrences;
          ExtractPairOccurrences(first, second, *bundle.db, config, &t_copy, &p_copy,
                                 &occurrences);
          saw_unseen = saw_unseen || t_copy.size() > c.t_registry.size();
          saw_unseen_p = saw_unseen_p || p_copy.size() > c.p_registry.size();
        }
        if (want == got) continue;
        if (++mismatches <= 3) {
          ADD_FAILURE() << bundle.name << ": " << first.ToString() << " | "
                        << second.ToString() << ": reference " << std::hexfloat << want
                        << " vs " << got;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << bundle.name << ", of " << compared << " pairs";
    EXPECT_TRUE(saw_unseen) << bundle.name;
    // Position features come from rewrites.
    if (config.use_position && config.use_rewrite_features) {
      EXPECT_TRUE(saw_unseen_p) << bundle.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ScorerDifferential, ScorerDifferentialTest,
                         ::testing::ValuesIn(Configs()),
                         [](const ::testing::TestParamInfo<NamedConfig>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace microbrowse
