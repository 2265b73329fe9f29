// Copyright 2026 The Microbrowse Authors
//
// Differential test wall for the rewrite matcher: the production
// index-based MatchRewrites must reproduce the string-based reference
// (rewrite_reference.h) exactly — rewrites in the same order, identical
// residue — for every ordered sibling pair of a seeded corpus, under every
// matching strategy and with no database, a heap-loaded database and an
// mmap pack-loaded database. Also checks that the two database layers
// answer Find identically.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/rewrite.h"
#include "microbrowse/stats_db.h"
#include "rewrite_reference.h"

namespace microbrowse {
namespace {

enum class DbKind { kNone, kHeap, kPack };

/// A seeded corpus, its ordered sibling pairs and the statistics database
/// built from it, loaded back through both storage layers.
struct MatcherFixture {
  std::vector<std::pair<Snippet, Snippet>> pairs;
  FeatureStatsDb heap_db;
  FeatureStatsDb pack_db;
};

const MatcherFixture& Fixture() {
  static const MatcherFixture* fixture = [] {
    auto* out = new MatcherFixture;
    AdCorpusOptions corpus_options;
    corpus_options.num_adgroups = 400;
    corpus_options.seed = 31;
    auto generated = GenerateAdCorpus(corpus_options);
    if (!generated.ok()) {
      ADD_FAILURE() << generated.status().ToString();
      return out;
    }
    for (const AdGroup& group : generated->corpus.adgroups) {
      for (const Creative& r : group.creatives) {
        for (const Creative& s : group.creatives) {
          if (&r != &s) out->pairs.emplace_back(r.snippet, s.snippet);
        }
      }
    }
    const FeatureStatsDb built =
        BuildFeatureStats(ExtractSignificantPairs(generated->corpus, {}), {});
    const std::string dir =
        ::testing::TempDir() + "/rewrite_differential_" + std::to_string(::getpid());
    EXPECT_TRUE(CreateDirectories(dir).ok());
    EXPECT_TRUE(SaveFeatureStats(built, dir + "/stats.tsv").ok());
    EXPECT_TRUE(SaveStatsPack(built, dir + "/stats.mbpack").ok());
    auto heap = LoadFeatureStats(dir + "/stats.tsv");
    auto pack = LoadStatsPack(dir + "/stats.mbpack");
    std::filesystem::remove_all(dir);  // The loaded pack keeps its mapping.
    if (!heap.ok() || !pack.ok()) {
      ADD_FAILURE() << "reloading the statistics failed";
      return out;
    }
    out->heap_db = std::move(*heap);
    out->pack_db = std::move(*pack);
    return out;
  }();
  return *fixture;
}

const FeatureStatsDb* DbFor(DbKind kind) {
  switch (kind) {
    case DbKind::kNone: return nullptr;
    case DbKind::kHeap: return &Fixture().heap_db;
    case DbKind::kPack: return &Fixture().pack_db;
  }
  return nullptr;
}

std::string Describe(const TermSpan& span) {
  return std::to_string(span.line) + ":" + std::to_string(span.pos) + ":" +
         std::to_string(span.len) + " '" + span.text + "'";
}

/// Empty when equal; otherwise the first difference, readably.
std::string FirstDifference(const PairDiff& want, const PairDiff& got) {
  if (want.rewrites.size() != got.rewrites.size()) {
    return "rewrite count " + std::to_string(want.rewrites.size()) + " vs " +
           std::to_string(got.rewrites.size());
  }
  for (size_t i = 0; i < want.rewrites.size(); ++i) {
    if (!(want.rewrites[i] == got.rewrites[i])) {
      return "rewrite #" + std::to_string(i) + ": " + Describe(want.rewrites[i].r_span) + " -> " +
             Describe(want.rewrites[i].s_span) + " vs " + Describe(got.rewrites[i].r_span) +
             " -> " + Describe(got.rewrites[i].s_span);
    }
  }
  if (want.r_only != got.r_only) return "r_only differs";
  if (want.s_only != got.s_only) return "s_only differs";
  return "";
}

class MatcherDifferentialTest
    : public ::testing::TestWithParam<std::tuple<MatchingStrategy, DbKind>> {
 protected:
  RewriteMatchOptions Options() const {
    RewriteMatchOptions options;
    options.strategy = std::get<0>(GetParam());
    return options;
  }
  const FeatureStatsDb* Db() const { return DbFor(std::get<1>(GetParam())); }
};

TEST_P(MatcherDifferentialTest, EveryOrderedSiblingPairMatchesTheReference) {
  const auto& pairs = Fixture().pairs;
  ASSERT_GT(pairs.size(), 1000u);
  const RewriteMatchOptions options = Options();
  size_t mismatches = 0;
  size_t rewrites = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [r, s] = pairs[i];
    const PairDiff want = ReferenceMatchRewrites(r, s, Db(), options);
    const PairDiff got = MatchRewrites(r, s, Db(), options);
    rewrites += want.rewrites.size();
    const std::string difference = FirstDifference(want, got);
    if (difference.empty()) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "pair " << i << " (" << r.ToString() << " | " << s.ToString()
                    << "): " << difference;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << pairs.size() << " pairs";
  EXPECT_GT(rewrites, pairs.size());  // The wall exercises real matching.
}

TEST_P(MatcherDifferentialTest, DiffRegionWiderThanSixteenBitIndices) {
  // One 25,000-token line against a three-token line: R's diff region
  // holds ~75k n-grams. The S side repeats R's last bigram, so the winning
  // exact-text candidate sits past gram index 65,535 on the R side.
  constexpr int kTokens = 25000;
  std::vector<std::string> long_line;
  for (int i = 0; i < kTokens; ++i) long_line.push_back("tok" + std::to_string(i));
  const Snippet r = Snippet::FromTokens({long_line});
  const Snippet s = Snippet::FromTokens(
      {{"fresh", "tok" + std::to_string(kTokens - 2), "tok" + std::to_string(kTokens - 1)}});
  const RewriteMatchOptions options = Options();
  const PairDiff want = ReferenceMatchRewrites(r, s, Db(), options);
  const PairDiff got = MatchRewrites(r, s, Db(), options);
  ASSERT_GT(want.r_only.size(), 65535u);
  EXPECT_EQ(FirstDifference(want, got), "");
  if (options.strategy != MatchingStrategy::kFirstMatch) {
    // Scored strategies pick the exact-text bigram at R's far end.
    ASSERT_FALSE(got.rewrites.empty());
    EXPECT_EQ(got.rewrites[0].r_span.pos, kTokens - 2);
    EXPECT_EQ(got.rewrites[0].s_span.pos, 1);
  }
}

std::string ParamName(const ::testing::TestParamInfo<std::tuple<MatchingStrategy, DbKind>>& info) {
  static const char* const kStrategies[] = {"GreedyStats", "FirstMatch", "PositionOnly"};
  static const char* const kDbs[] = {"NoDb", "HeapDb", "PackDb"};
  return std::string(kStrategies[static_cast<int>(std::get<0>(info.param))]) + "_" +
         kDbs[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndDbs, MatcherDifferentialTest,
    ::testing::Combine(::testing::Values(MatchingStrategy::kGreedyStats,
                                         MatchingStrategy::kFirstMatch,
                                         MatchingStrategy::kPositionOnly),
                       ::testing::Values(DbKind::kNone, DbKind::kHeap, DbKind::kPack)),
    ParamName);

/// Asserts both layers give the same answer for `key`.
void ExpectSameFind(const FeatureStatsDb& heap, const FeatureStatsDb& pack,
                    std::string_view key) {
  const FeatureStat* a = heap.Find(key);
  const FeatureStat* b = pack.Find(key);
  ASSERT_EQ(a == nullptr, b == nullptr) << "key '" << key << "'";
  if (a != nullptr) {
    EXPECT_EQ(a->positive, b->positive) << "key '" << key << "'";
    EXPECT_EQ(a->total, b->total) << "key '" << key << "'";
  }
}

TEST(StatsDbLayersTest, HeapAndPackFindAgree) {
  const FeatureStatsDb& heap = Fixture().heap_db;
  const FeatureStatsDb& pack = Fixture().pack_db;
  ASSERT_EQ(heap.base_size(), 0u);
  ASSERT_EQ(pack.stats().size(), 0u);
  ASSERT_EQ(heap.size(), pack.size());
  size_t present = 0;
  heap.ForEach([&](std::string_view key, const FeatureStat&) {
    // Present key, then absent extensions and (mostly absent) prefixes.
    ASSERT_NE(pack.Find(key), nullptr) << "key '" << key << "'";
    ExpectSameFind(heap, pack, key);
    ExpectSameFind(heap, pack, std::string(key) + " ");
    ExpectSameFind(heap, pack, std::string(key) + "zz");
    for (size_t len = 0; len < key.size(); ++len) {
      ExpectSameFind(heap, pack, key.substr(0, len));
    }
    ++present;
  });
  EXPECT_EQ(present, heap.size());
  for (std::string_view key : {"", "t:", "rw:", "rw:=>", "p:9:9", "zz:absent"}) {
    ExpectSameFind(heap, pack, key);
  }
}

TEST(StatsDbLayersTest, HeapFindHonoursViewLength) {
  FeatureStatsDb db;
  db.AddObservation("rw:a=>b", +1);
  const std::string buffer = "rw:a=>bc";
  EXPECT_NE(db.Find(std::string_view(buffer).substr(0, 7)), nullptr);
  EXPECT_EQ(db.Find(buffer), nullptr);
  EXPECT_EQ(db.Find(std::string_view(buffer).substr(0, 6)), nullptr);
}

}  // namespace
}  // namespace microbrowse
