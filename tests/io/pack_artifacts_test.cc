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

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "io/atomic_file.h"

#include "common/random.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "pack/hash_index.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"

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
  EXPECT_NE(stats->find("format version : 2"), std::string::npos) << *stats;
  for (int c = 0; c < kNumStatsClasses; ++c) {
    EXPECT_NE(stats->find("stats-c" + std::to_string(c) + "-key-index"), std::string::npos)
        << *stats;
  }

  auto model = DescribePack(*dir_ + "/model.mbp");
  ASSERT_TRUE(model.ok());
  EXPECT_NE(model->find("snippet classifier"), std::string::npos) << *model;
  EXPECT_NE(model->find("t-registry-name-index"), std::string::npos) << *model;
  EXPECT_NE(model->find("p-registry-name-index"), std::string::npos) << *model;
  EXPECT_EQ(model->find("unknown"), std::string::npos) << *model;

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

TEST_F(PackArtifactsTest, StatsPackRejectsUnusableSmoothing) {
  const std::string path = *dir_ + "/bad_smoothing.mbp";
  for (double smoothing : {std::nan(""), HUGE_VAL, 0.0, -1.0}) {
    FeatureStatsDb db;
    db.set_smoothing(smoothing);
    db.SetStat("t:x", 1, 2);
    ASSERT_TRUE(SaveStatsPack(db, path).ok());
    auto loaded = LoadStatsPack(path);
    ASSERT_FALSE(loaded.ok()) << smoothing;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << smoothing;
    EXPECT_NE(loaded.status().message().find("smoothing"), std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(PackArtifactsTest, StatsPackRejectsNegativeMinCount) {
  // The TSV loader refuses the same setting.
  const std::string path = *dir_ + "/bad_min_count.mbp";
  FeatureStatsDb db;
  db.set_min_count(-1);
  db.SetStat("t:x", 1, 2);
  ASSERT_TRUE(SaveStatsPack(db, path).ok());
  auto loaded = LoadStatsPack(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("min_count"), std::string::npos)
      << loaded.status().message();
}

TEST_F(PackArtifactsTest, StatsPackRejectsInvalidCounts) {
  // The same rows the TSV loader rejects: positive < 0 or above total.
  const std::string path = *dir_ + "/bad_counts.mbp";
  for (const auto& [positive, total] : {std::pair<int64_t, int64_t>{5, 3}, {-1, 2}}) {
    FeatureStatsDb db;
    db.SetStat("rw:a=>b", 1, 2);
    db.SetStat("t:x", positive, total);
    ASSERT_TRUE(SaveStatsPack(db, path).ok());
    auto loaded = LoadStatsPack(path);
    ASSERT_FALSE(loaded.ok()) << positive << "/" << total;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find("invalid stat counts"), std::string::npos)
        << loaded.status().message();
  }
}

/// Keys that the tables mostly lack, derived from `key` with a seeded
/// generator: one byte longer, one shorter, one byte changed, and a
/// random tail after the key's first bytes.
std::vector<std::string> NearMisses(std::string_view key, Rng* rng) {
  std::vector<std::string> misses;
  misses.push_back(std::string(key) + static_cast<char>('a' + rng->UniformInt(0, 25)));
  if (!key.empty()) misses.emplace_back(key.substr(0, key.size() - 1));
  std::string changed(key);
  if (!changed.empty()) {
    changed[rng->UniformInt(0, static_cast<int>(changed.size()) - 1)] ^= 0x01;
  }
  misses.push_back(changed);
  std::string tail(key.substr(0, std::min<size_t>(key.size(), 3)));
  for (int i = 0, n = rng->UniformInt(0, 12); i < n; ++i) {
    tail += static_cast<char>('a' + rng->UniformInt(0, 25));
  }
  misses.push_back(tail);
  return misses;
}

/// The lookups that take a pack::HashedKey answer as their string forms.
void ExpectHashedLookupsAgree(const FeatureStatsDb& db, std::string_view key) {
  const pack::HashedKey hashed(key);
  const FeatureStat* stat = db.Find(key);
  ASSERT_EQ(db.Find(hashed), stat) << key;
  if (stat != nullptr) {
    EXPECT_EQ(db.Find(hashed)->total, stat->total) << key;
  }
  EXPECT_EQ(db.LogOdds(hashed), db.LogOdds(key)) << key;
}

/// Pack-backed Find equals heap Find for every key of `heap` and for
/// near misses of each, through the string and the hashed-key lookups
/// alike; returns how many absent keys were probed.
size_t ExpectSameStatsFinds(const FeatureStatsDb& heap, const FeatureStatsDb& packed,
                            uint64_t seed) {
  Rng rng(seed);
  size_t absent = 0;
  heap.ForEach([&](std::string_view key, const FeatureStat& stat) {
    const FeatureStat* found = packed.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(found->positive, stat.positive) << key;
    EXPECT_EQ(found->total, stat.total) << key;
    ExpectHashedLookupsAgree(heap, key);
    ExpectHashedLookupsAgree(packed, key);
    for (const std::string& miss : NearMisses(key, &rng)) {
      const FeatureStat* want = heap.Find(miss);
      const FeatureStat* got = packed.Find(miss);
      ExpectHashedLookupsAgree(heap, miss);
      ExpectHashedLookupsAgree(packed, miss);
      ASSERT_EQ(got == nullptr, want == nullptr) << miss;
      if (want == nullptr) {
        ++absent;
      } else {
        EXPECT_EQ(got->total, want->total) << miss;
      }
    }
  });
  return absent;
}

/// The same for a registry: every name maps to the same id, near misses
/// to the same id or to none.
size_t ExpectSameRegistryFinds(const FeatureRegistry& heap, const FeatureRegistry& packed,
                               uint64_t seed) {
  Rng rng(seed);
  size_t absent = 0;
  EXPECT_EQ(packed.base_size(), heap.size());
  for (size_t id = 0; id < heap.size(); ++id) {
    const std::string_view name = heap.NameOf(static_cast<FeatureId>(id));
    EXPECT_EQ(packed.Find(name), static_cast<FeatureId>(id)) << name;
    EXPECT_EQ(packed.Find(pack::HashedKey(name)), static_cast<FeatureId>(id)) << name;
    EXPECT_EQ(heap.Find(pack::HashedKey(name)), static_cast<FeatureId>(id)) << name;
    for (const std::string& miss : NearMisses(name, &rng)) {
      const FeatureId want = heap.Find(miss);
      EXPECT_EQ(packed.Find(miss), want) << miss;
      EXPECT_EQ(packed.Find(pack::HashedKey(miss)), want) << miss;
      EXPECT_EQ(heap.Find(pack::HashedKey(miss)), want) << miss;
      absent += want == kInvalidFeatureId ? 1 : 0;
    }
  }
  return absent;
}

TEST_F(PackArtifactsTest, PackIndexFindEqualsHeapFindForEveryKey) {
  auto packed_db = LoadStatsPack(*dir_ + "/stats.mbp");
  auto tsv_model = LoadClassifier(*dir_ + "/model.txt");
  auto packed_model = LoadClassifierPack(*dir_ + "/model.mbp");
  ASSERT_TRUE(packed_db.ok() && tsv_model.ok() && packed_model.ok());
  EXPECT_GT(ExpectSameStatsFinds(*db_, *packed_db, 31), db_->size());
  EXPECT_GT(ExpectSameRegistryFinds(tsv_model->t_registry, packed_model->t_registry, 32),
            tsv_model->t_registry.size());
  EXPECT_GT(ExpectSameRegistryFinds(tsv_model->p_registry, packed_model->p_registry, 33),
            tsv_model->p_registry.size());
}

TEST_F(PackArtifactsTest, PackIndexHandlesEmptyClassesOneKeyTablesAndSharedPrefixes) {
  // Class 0 holds one key, class 2 (bigrams) none, and classes 1 and 3 hold
  // keys that agree on their first 300 bytes.
  const std::string prefix(300, 'q');
  FeatureStatsDb db;
  db.SetStat("rw:a=>b", 3, 7);
  for (int i = 0; i < 150; ++i) {
    db.SetStat("t:" + prefix + std::to_string(i), i, 2 * i + 1);
    db.SetStat("t:" + prefix + " x y" + std::to_string(i), 1, 3);
  }
  const std::string stats_path = *dir_ + "/edge_stats.mbp";
  ASSERT_TRUE(SaveStatsPack(db, stats_path).ok());
  auto packed_db = LoadStatsPack(stats_path);
  ASSERT_TRUE(packed_db.ok()) << packed_db.status().ToString();
  EXPECT_EQ(packed_db->size(), db.size());
  EXPECT_GT(ExpectSameStatsFinds(db, *packed_db, 41), 0u);
  EXPECT_EQ(packed_db->Find("t:a b"), nullptr);  // Empty class 2.

  FeatureRegistry t_registry, p_registry;
  for (int i = 0; i < 500; ++i) t_registry.Intern("tp:" + prefix + std::to_string(i), 0.5);
  p_registry.Intern("p:0:0", 0.25);
  SnippetClassifierModel model;
  model.t_weights.assign(t_registry.size(), 1.0);
  model.p_weights.assign(p_registry.size(), 0.75);
  const std::string model_path = *dir_ + "/edge_model.mbp";
  ASSERT_TRUE(SaveClassifierPack(model, t_registry, p_registry, model_path).ok());
  auto packed_model = LoadClassifierPack(model_path);
  ASSERT_TRUE(packed_model.ok()) << packed_model.status().ToString();
  EXPECT_GT(ExpectSameRegistryFinds(t_registry, packed_model->t_registry, 42), 0u);
  EXPECT_GT(ExpectSameRegistryFinds(p_registry, packed_model->p_registry, 43), 0u);
  EXPECT_EQ(packed_model->p_registry.Find("p:0:1"), kInvalidFeatureId);
}

/// Copies the pack at `from` to `to` through pack::PackWriter, so every
/// checksum is valid, with section `type`'s slots passed through `mutate`.
void RewriteIndexSection(const std::string& from, const std::string& to, uint32_t type,
                         const std::function<void(std::vector<uint32_t>*)>& mutate) {
  auto reader = pack::PackReader::Open(from);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  pack::PackWriter writer;
  for (const auto& section : (*reader)->sections()) {
    auto payload = (*reader)->Section(section.type);
    ASSERT_TRUE(payload.ok());
    if (section.type != type) {
      writer.AddSection(section.type, std::string(*payload));
      continue;
    }
    std::vector<uint32_t> slots(payload->size() / sizeof(uint32_t));
    std::memcpy(slots.data(), payload->data(), payload->size());
    mutate(&slots);
    pack::SectionBuilder builder;
    builder.AppendArray(slots);
    writer.AddSection(type, std::move(builder).Take());
  }
  ASSERT_TRUE(writer.Finish(to).ok());
}

TEST_F(PackArtifactsTest, CorruptPackIndexIsATypedIOError) {
  // Slot values: 0 is empty, otherwise the low bits hold index + 1. The
  // first two corruptions keep the number of occupied slots, so only the
  // check that every index is present catches them.
  auto used_slots = [](const std::vector<uint32_t>& slots) {
    std::vector<size_t> used;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] != 0) used.push_back(i);
    }
    return used;
  };
  struct Corruption {
    const char* name;
    std::function<void(std::vector<uint32_t>*)> mutate;
    const char* reason;
  };
  const std::vector<Corruption> corruptions = {
      {"index out of range",
       [&](std::vector<uint32_t>* slots) {
         // One past the last index (the occupied slots count the keys).
         const std::vector<size_t> used = used_slots(*slots);
         (*slots)[used.front()] = static_cast<uint32_t>(used.size() + 1);
       },
       "out of range"},
      {"duplicated index",
       [&](std::vector<uint32_t>* slots) {
         // Over another key's slot, or over an empty one if there is none.
         const std::vector<size_t> used = used_slots(*slots);
         const size_t target =
             used.size() > 1
                 ? used[1]
                 : static_cast<size_t>(std::find(slots->begin(), slots->end(), 0u) -
                                       slots->begin());
         (*slots)[target] = (*slots)[used.front()];
       },
       "appears in two slots"},
      {"no empty slot",
       [&](std::vector<uint32_t>* slots) {
         // A power-of-two run of distinct valid indexes: a full table whose
         // probes for an absent key would never stop.
         std::vector<uint32_t> full;
         for (size_t i : used_slots(*slots)) full.push_back((*slots)[i]);
         full.resize(std::bit_floor(full.size()));
         *slots = full;
       },
       "no empty slot"},
      {"slot count not a power of two",
       [](std::vector<uint32_t>* slots) { slots->push_back(0); }, "not a power of two"},
  };
  // A stats pack whose class 0 holds one key: with every slot but one
  // dropped, its index is full yet indexes every key.
  FeatureStatsDb one_key;
  one_key.SetStat("rw:a=>b", 1, 2);
  one_key.SetStat("t:x", 1, 2);
  ASSERT_TRUE(SaveStatsPack(one_key, *dir_ + "/one_key.mbp").ok());
  const std::vector<std::tuple<std::string, uint32_t, bool>> targets = {
      {"/stats.mbp", StatsClassSection(0) + 3, true},
      {"/one_key.mbp", StatsClassSection(0) + 3, true},
      {"/model.mbp", kSecTRegistry + 5, false},
      {"/model.mbp", kSecPRegistry + 5, false},
  };
  for (const auto& [file, section, is_stats] : targets) {
    for (const Corruption& corruption : corruptions) {
      SCOPED_TRACE(file + " section " + std::to_string(section) + ": " + corruption.name);
      const std::string path = *dir_ + "/corrupt_index.mbp";
      RewriteIndexSection(*dir_ + file, path, section, corruption.mutate);
      const Status status =
          is_stats ? LoadStatsPack(path).status() : LoadClassifierPack(path).status();
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
      EXPECT_NE(status.message().find(corruption.reason), std::string::npos)
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace microbrowse
