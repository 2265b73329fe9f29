// Copyright 2026 The Microbrowse Authors
//
// Differential test wall for feature extraction: ExtractPairOccurrences
// must produce exactly the occurrence sequence (t id, p id, sign) of the
// eager-interning reference (occurrence_reference.h) for every ordered
// sibling pair of a seeded corpus, and leave both registries with the same
// names in the same id order and bitwise-equal initial weights (signed
// zeros included). It runs under the paper's six models, starting from
// empty registries, from registries pre-filled by an earlier pass against
// another corpus's statistics (so a known key's stored warm start differs
// from the one the current database would give), and from those
// registries reloaded from a classifier pack (known keys in the immutable
// base).

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "occurrence_reference.h"

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

/// The pairs under test and their statistics; and, for pre-filling
/// registries, the pairs of an earlier pass and the statistics of another
/// corpus, so that known keys carry warm starts the main pass would not
/// compute.
struct Corpora {
  std::vector<std::pair<Snippet, Snippet>> pairs;
  std::vector<std::pair<Snippet, Snippet>> earlier_pairs;
  FeatureStatsDb db;
  FeatureStatsDb earlier_db;
};

const Corpora& SharedCorpora() {
  static const Corpora* corpora = [] {
    auto* out = new Corpora;
    const AdCorpus corpus = Generate(50, 61);
    out->pairs = OrderedSiblingPairs(corpus);
    out->db = BuildFeatureStats(ExtractSignificantPairs(corpus, {}), {});
    // The earlier pass sees half the pairs under test, so it pre-fills
    // keys the main pass meets again, plus pairs of another corpus.
    const AdCorpus other = Generate(25, 83);
    out->earlier_db = BuildFeatureStats(ExtractSignificantPairs(other, {}), {});
    const auto half = static_cast<std::ptrdiff_t>(out->pairs.size() / 2);
    out->earlier_pairs.assign(out->pairs.begin(), out->pairs.begin() + half);
    for (const auto& pair : OrderedSiblingPairs(other)) out->earlier_pairs.push_back(pair);
    return out;
  }();
  return *corpora;
}

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

/// The registries a run starts from.
struct Registries {
  std::string name;
  FeatureRegistry t;
  FeatureRegistry p;
};

/// Empty registries; registries pre-filled by extracting the earlier pairs
/// against the other corpus's statistics; and those reloaded from a
/// classifier pack.
std::vector<Registries> StartingRegistries(const ClassifierConfig& config) {
  const Corpora& corpora = SharedCorpora();
  std::vector<Registries> out;
  out.push_back({"cold", {}, {}});
  Registries prefilled{"prefilled", {}, {}};
  std::vector<CoupledOccurrence> scratch;
  for (const auto& [first, second] : corpora.earlier_pairs) {
    ReferenceExtractPairOccurrences(first, second, corpora.earlier_db, config, &prefilled.t,
                                    &prefilled.p, &scratch);
  }
  EXPECT_GT(prefilled.t.size(), 0u);

  const std::string dir =
      ::testing::TempDir() + "/occurrence_differential_" + std::to_string(::getpid());
  EXPECT_TRUE(CreateDirectories(dir).ok());
  SnippetClassifierModel model;
  model.t_weights = prefilled.t.InitialWeights();
  model.p_weights = prefilled.p.InitialWeights();
  const std::string path = dir + "/" + config.name + ".mbpack";
  EXPECT_TRUE(SaveClassifierPack(model, prefilled.t, prefilled.p, path).ok());
  auto pack = LoadClassifierPack(path);
  std::filesystem::remove_all(dir);  // The loaded pack keeps its mapping.
  EXPECT_TRUE(pack.ok()) << pack.status().ToString();
  out.push_back(std::move(prefilled));
  if (pack.ok()) {
    out.push_back({"pack", std::move(pack->t_registry), std::move(pack->p_registry)});
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameOccurrence(const CoupledOccurrence& a, const CoupledOccurrence& b) {
  return a.t == b.t && a.p == b.p && SameBits(a.sign, b.sign);
}

/// Asserts `got` holds exactly `want`'s names in id order, with
/// bitwise-equal initial weights.
void ExpectSameRegistry(const FeatureRegistry& want, const FeatureRegistry& got,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(got.base_size(), want.base_size()) << label;
  size_t mismatches = 0;
  for (FeatureId id = 0; id < want.size(); ++id) {
    const bool same = got.NameOf(id) == want.NameOf(id) &&
                      SameBits(got.InitialWeightOf(id), want.InitialWeightOf(id));
    if (!same && ++mismatches <= 3) {
      ADD_FAILURE() << label << ": id " << id << ": reference " << want.NameOf(id) << " = "
                    << want.InitialWeightOf(id) << " vs " << got.NameOf(id) << " = "
                    << got.InitialWeightOf(id);
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

class OccurrenceDifferentialTest : public ::testing::TestWithParam<NamedConfig> {};

TEST_P(OccurrenceDifferentialTest, OccurrencesAndRegistriesEqualTheEagerReference) {
  const Corpora& corpora = SharedCorpora();
  ASSERT_GT(corpora.pairs.size(), 200u);
  const ClassifierConfig& config = GetParam().config;
  for (const Registries& start : StartingRegistries(config)) {
    FeatureRegistry want_t = start.t;
    FeatureRegistry want_p = start.p;
    FeatureRegistry got_t = start.t;
    FeatureRegistry got_p = start.p;
    size_t mismatches = 0;
    size_t occurrences = 0;
    for (const auto& [first, second] : corpora.pairs) {
      std::vector<CoupledOccurrence> want;
      std::vector<CoupledOccurrence> got;
      ReferenceExtractPairOccurrences(first, second, corpora.db, config, &want_t, &want_p,
                                      &want);
      ExtractPairOccurrences(first, second, corpora.db, config, &got_t, &got_p, &got);
      occurrences += want.size();
      bool same = want.size() == got.size();
      for (size_t i = 0; same && i < want.size(); ++i) same = SameOccurrence(want[i], got[i]);
      if (!same && ++mismatches <= 3) {
        ADD_FAILURE() << start.name << ": " << first.ToString() << " | " << second.ToString()
                      << ": " << want.size() << " reference occurrences vs " << got.size();
      }
    }
    EXPECT_EQ(mismatches, 0u) << start.name << ", of " << corpora.pairs.size() << " pairs";
    EXPECT_GT(occurrences, 0u) << start.name;
    // A pre-filled start must still meet keys it has not seen.
    EXPECT_GT(want_t.size(), start.t.size()) << start.name;
    ExpectSameRegistry(want_t, got_t, start.name + " T registry");
    ExpectSameRegistry(want_p, got_p, start.name + " P registry");
  }
}

INSTANTIATE_TEST_SUITE_P(OccurrenceDifferential, OccurrenceDifferentialTest,
                         ::testing::ValuesIn(Configs()),
                         [](const ::testing::TestParamInfo<NamedConfig>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace microbrowse
