// Copyright 2026 The Microbrowse Authors
//
// Differential test wall for the rewrite matcher: the production
// index-based MatchRewrites must reproduce the string-based reference
// (rewrite_reference.h) exactly — rewrites in the same order, identical
// residue — for every ordered sibling pair of a seeded corpus, under every
// matching strategy and with no database, a heap-loaded database and an
// mmap pack-loaded database. The greedy strategy is also run against the
// databases of every other construction path (the in-memory build, the
// sharded build) and against adversarial ones, because the production
// matcher consults the database's rewrite filter and the reference does
// not. Also checks that the two database layers answer Find identically.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/corpus_shards.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/checkpoint.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "microbrowse/stats_db.h"
#include "rewrite_reference.h"

namespace microbrowse {
namespace {

/// kHeap and kPack are the TSV and pack loads of kBuilt; kNoRewrites is
/// kHeap with every "rw:" key dropped.
enum class DbKind { kNone, kHeap, kPack, kBuilt, kSharded, kNoRewrites };

/// A seeded corpus, its ordered sibling pairs and the statistics database
/// built from it by every construction path.
struct MatcherFixture {
  std::vector<std::pair<Snippet, Snippet>> pairs;
  FeatureStatsDb heap_db;
  FeatureStatsDb pack_db;
  FeatureStatsDb built_db;
  FeatureStatsDb sharded_db;
  FeatureStatsDb checkpoint_db;  ///< built_db through a CV checkpoint.
  FeatureStatsDb no_rewrites_db;
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
    // The final pass's database: the one the pass-2 matching produced.
    out->built_db = BuildFeatureStats(ExtractSignificantPairs(generated->corpus, {}), {});
    const std::string dir =
        ::testing::TempDir() + "/rewrite_differential_" + std::to_string(::getpid());
    EXPECT_TRUE(CreateDirectories(dir).ok());
    EXPECT_TRUE(SaveFeatureStats(out->built_db, dir + "/stats.tsv").ok());
    EXPECT_TRUE(SaveStatsPack(out->built_db, dir + "/stats.mbpack").ok());
    EXPECT_TRUE(SaveAdCorpusSharded(generated->corpus, dir + "/corpus.tsv", 3).ok());
    auto heap = LoadFeatureStats(dir + "/stats.tsv");
    auto pack = LoadStatsPack(dir + "/stats.mbpack");
    auto shards = ResolveCorpusShards(dir + "/corpus.tsv");
    auto sharded = shards.ok() ? BuildFeatureStatsSharded(*shards, {}, {}, {}, nullptr)
                               : Result<FeatureStatsDb>(shards.status());
    auto checkpoint = CvCheckpoint::Open(dir + "/checkpoint", /*fingerprint=*/1);
    const bool checkpoint_loaded = checkpoint.ok() &&
                                   checkpoint->SaveStats(out->built_db).ok() &&
                                   checkpoint->LoadStats(&out->checkpoint_db).value_or(false);
    std::filesystem::remove_all(dir);  // The loaded pack keeps its mapping.
    if (!heap.ok() || !pack.ok() || !sharded.ok() || !checkpoint_loaded) {
      ADD_FAILURE() << "reloading or re-building the statistics failed";
      return out;
    }
    out->heap_db = std::move(*heap);
    out->pack_db = std::move(*pack);
    out->sharded_db = std::move(*sharded);
    out->no_rewrites_db.set_smoothing(out->heap_db.smoothing());
    out->no_rewrites_db.set_min_count(out->heap_db.min_count());
    out->heap_db.ForEach([&](std::string_view key, const FeatureStat& stat) {
      if (key.substr(0, kRewriteKeyPrefix.size()) != kRewriteKeyPrefix) {
        out->no_rewrites_db.SetStat(std::string(key), stat.positive, stat.total);
      }
    });
    out->no_rewrites_db.BuildRewriteFilter();
    return out;
  }();
  return *fixture;
}

const FeatureStatsDb* DbFor(DbKind kind) {
  switch (kind) {
    case DbKind::kNone: return nullptr;
    case DbKind::kHeap: return &Fixture().heap_db;
    case DbKind::kPack: return &Fixture().pack_db;
    case DbKind::kBuilt: return &Fixture().built_db;
    case DbKind::kSharded: return &Fixture().sharded_db;
    case DbKind::kNoRewrites: return &Fixture().no_rewrites_db;
  }
  return nullptr;
}

std::string Describe(const Snippet& snippet, const TermSpan& span) {
  return std::to_string(span.line) + ":" + std::to_string(span.pos) + ":" +
         std::to_string(span.len) + " '" + snippet.SpanText(span) + "'";
}

/// Empty when the decompositions of the pair (r, s) are equal; otherwise
/// the first difference, readably. Spans of one snippet are equal exactly
/// when their texts are too, so comparing spans compares texts.
std::string FirstDifference(const Snippet& r, const Snippet& s, const PairDiff& want,
                            const PairDiff& got) {
  if (want.rewrites.size() != got.rewrites.size()) {
    return "rewrite count " + std::to_string(want.rewrites.size()) + " vs " +
           std::to_string(got.rewrites.size());
  }
  for (size_t i = 0; i < want.rewrites.size(); ++i) {
    if (!(want.rewrites[i] == got.rewrites[i])) {
      return "rewrite #" + std::to_string(i) + ": " + Describe(r, want.rewrites[i].r_span) +
             " -> " + Describe(s, want.rewrites[i].s_span) + " vs " +
             Describe(r, got.rewrites[i].r_span) + " -> " + Describe(s, got.rewrites[i].s_span);
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
    const std::string difference = FirstDifference(r, s, want, got);
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
  EXPECT_EQ(FirstDifference(r, s, want, got), "");
  if (options.strategy != MatchingStrategy::kFirstMatch) {
    // Scored strategies pick the exact-text bigram at R's far end.
    ASSERT_FALSE(got.rewrites.empty());
    EXPECT_EQ(got.rewrites[0].r_span.pos, kTokens - 2);
    EXPECT_EQ(got.rewrites[0].s_span.pos, 1);
  }
}

std::string ParamName(const ::testing::TestParamInfo<std::tuple<MatchingStrategy, DbKind>>& info) {
  static const char* const kStrategies[] = {"GreedyStats", "FirstMatch", "PositionOnly"};
  static const char* const kDbs[] = {"NoDb",    "HeapDb",    "PackDb",
                                     "BuiltDb", "ShardedDb", "NoRewritesDb"};
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

// Only kGreedyStats consults the database, so the remaining construction
// paths and the rewrite-free database run under it alone.
INSTANTIATE_TEST_SUITE_P(
    ConstructionPaths, MatcherDifferentialTest,
    ::testing::Combine(::testing::Values(MatchingStrategy::kGreedyStats),
                       ::testing::Values(DbKind::kBuilt, DbKind::kSharded,
                                         DbKind::kNoRewrites)),
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

TEST(RewriteFilterTest, EveryConstructionPathBuildsAFilterWithoutFalseNegatives) {
  const MatcherFixture& fixture = Fixture();
  const std::pair<const char*, const FeatureStatsDb*> dbs[] = {
      {"built", &fixture.built_db},
      {"sharded", &fixture.sharded_db},
      {"tsv", &fixture.heap_db},
      {"pack", &fixture.pack_db},
      {"checkpoint", &fixture.checkpoint_db}};
  for (const auto& [name, db] : dbs) {
    ASSERT_TRUE(db->has_rewrite_filter()) << name;
    size_t rewrite_keys = 0;
    db->ForEach([&](std::string_view key, const FeatureStat&) {
      ForEachRewriteFingerprint(key, [&](uint64_t fingerprint) {
        ASSERT_TRUE(db->MayContainRewrite(fingerprint)) << name << " '" << key << "'";
        ++rewrite_keys;
      });
    });
    EXPECT_GT(rewrite_keys, 100u) << name;
  }
  // The rewrite-free database's filter rules out every rewrite.
  ASSERT_TRUE(fixture.no_rewrites_db.has_rewrite_filter());
  fixture.heap_db.ForEach([&](std::string_view key, const FeatureStat&) {
    ForEachRewriteFingerprint(key, [&](uint64_t fingerprint) {
      ASSERT_FALSE(fixture.no_rewrites_db.MayContainRewrite(fingerprint)) << key;
    });
  });
}

/// Runs both matchers on the one-line pair (r, s) under kGreedyStats and
/// returns the production result after checking it equals the reference.
PairDiff MatchOneLine(const std::vector<std::string>& r, const std::vector<std::string>& s,
                      const FeatureStatsDb& db) {
  const Snippet r_snippet = Snippet::FromTokens({r});
  const Snippet s_snippet = Snippet::FromTokens({s});
  const PairDiff want = ReferenceMatchRewrites(r_snippet, s_snippet, &db);
  const PairDiff got = MatchRewrites(r_snippet, s_snippet, &db);
  EXPECT_EQ(FirstDifference(r_snippet, s_snippet, want, got), "");
  return got;
}

/// SpanText of `span` in the one-line snippet `line`.
std::string LineSpanText(const std::vector<std::string>& line, const TermSpan& span) {
  return Snippet::FromTokens({line}).SpanText(span);
}

int64_t RewriteHits() {
  return MetricRegistry::Global().GetCounter("mb.rewrite.hits")->Value();
}

TEST(RewriteFilterTest, KeyWithTwoArrowsIsFoundUnderEitherReading) {
  // "rw:a=>b=>c" is both ("a", "b=>c") and ("a=>b", "c"). Its count makes
  // the rewrite outrank the bigram pairing that wins without a database.
  FeatureStatsDb built;
  built.SetStat("rw:a=>b=>c", 30, 40);
  built.SetStat("t:x", 1, 2);
  built.BuildRewriteFilter();
  const std::string dir =
      ::testing::TempDir() + "/rewrite_filter_arrows_" + std::to_string(::getpid());
  ASSERT_TRUE(CreateDirectories(dir).ok());
  ASSERT_TRUE(SaveFeatureStats(built, dir + "/stats.tsv").ok());
  ASSERT_TRUE(SaveStatsPack(built, dir + "/stats.mbpack").ok());
  auto tsv = LoadFeatureStats(dir + "/stats.tsv");
  auto pack = LoadStatsPack(dir + "/stats.mbpack");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(tsv.ok() && pack.ok());

  const std::pair<const char*, const FeatureStatsDb*> dbs[] = {
      {"built", &built}, {"tsv", &*tsv}, {"pack", &*pack}};
  for (const auto& [name, db] : dbs) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(db->has_rewrite_filter());
    const int64_t hits_before = RewriteHits();
    const std::vector<std::string> lo_r = {"a=>b", "x"};
    const std::vector<std::string> lo_s = {"y", "c"};
    const PairDiff lo_has_arrow = MatchOneLine(lo_r, lo_s, *db);
    ASSERT_FALSE(lo_has_arrow.rewrites.empty());
    EXPECT_EQ(LineSpanText(lo_r, lo_has_arrow.rewrites[0].r_span), "a=>b");
    EXPECT_EQ(LineSpanText(lo_s, lo_has_arrow.rewrites[0].s_span), "c");
    const std::vector<std::string> hi_r = {"a", "x"};
    const std::vector<std::string> hi_s = {"y", "b=>c"};
    const PairDiff hi_has_arrow = MatchOneLine(hi_r, hi_s, *db);
    ASSERT_FALSE(hi_has_arrow.rewrites.empty());
    EXPECT_EQ(LineSpanText(hi_r, hi_has_arrow.rewrites[0].r_span), "a");
    EXPECT_EQ(LineSpanText(hi_s, hi_has_arrow.rewrites[0].s_span), "b=>c");
    EXPECT_EQ(RewriteHits() - hits_before, 2);
  }
}

TEST(RewriteFilterTest, EveryMutatorDropsTheFilter) {
  // A rewrite added after the filter was built must still be found: each
  // mutator drops the filter, so the matcher falls back to Find.
  const std::vector<std::string> r = {"x", "cheap", "y"};
  const std::vector<std::string> s = {"x", "deals", "z"};
  const std::pair<const char*, std::function<void(FeatureStatsDb*)>> mutators[] = {
      {"AddObservation", [](FeatureStatsDb* db) { db->AddObservation("rw:cheap=>deals", +1); }},
      {"SetStat", [](FeatureStatsDb* db) { db->SetStat("rw:cheap=>deals", 4, 6); }},
      {"AddCounts", [](FeatureStatsDb* db) { db->AddCounts("rw:cheap=>deals", 4, 6); }},
      {"mutable_stats",
       [](FeatureStatsDb* db) {
         db->mutable_stats().emplace("rw:cheap=>deals", FeatureStat{4, 6});
       }},
  };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    FeatureStatsDb db;
    db.SetStat("rw:alpha=>beta", 3, 5);
    db.SetStat("t:cheap", 1, 2);
    db.BuildRewriteFilter();
    ASSERT_TRUE(db.has_rewrite_filter());
    // Precondition: the filter as built rules the new rewrite out, so a
    // stale filter would hide it.
    ASSERT_FALSE(db.MayContainRewrite(
        RewriteFingerprint(RewriteSideHash("cheap"), RewriteSideHash("deals"))));
    const PairDiff before = MatchOneLine(r, s, db);
    ASSERT_FALSE(before.rewrites.empty());
    EXPECT_EQ(LineSpanText(r, before.rewrites[0].r_span), "x cheap y");

    mutate(&db);
    EXPECT_FALSE(db.has_rewrite_filter());
    const PairDiff after = MatchOneLine(r, s, db);
    ASSERT_FALSE(after.rewrites.empty());
    EXPECT_EQ(LineSpanText(r, after.rewrites[0].r_span), "cheap");
    EXPECT_EQ(LineSpanText(s, after.rewrites[0].s_span), "deals");

    db.BuildRewriteFilter();  // Rebuilt, the filter admits the new rewrite.
    EXPECT_EQ(FirstDifference(Snippet::FromTokens({r}), Snippet::FromTokens({s}), after,
                              MatchOneLine(r, s, db)),
              "");
  }
}

TEST(RewriteFilterTest, CountersTallyLookupsFilterPassesAndHits) {
  Counter* lookups = MetricRegistry::Global().GetCounter("mb.rewrite.lookups");
  Counter* passed = MetricRegistry::Global().GetCounter("mb.rewrite.filter_passed");
  const int64_t lookups_before = lookups->Value();
  const int64_t passed_before = passed->Value();
  const int64_t hits_before = RewriteHits();
  const FeatureStatsDb& db = Fixture().heap_db;
  for (size_t i = 0; i < 200; ++i) {
    const auto& [r, s] = Fixture().pairs[i];
    (void)MatchRewrites(r, s, &db);
  }
  const int64_t n_lookups = lookups->Value() - lookups_before;
  const int64_t n_passed = passed->Value() - passed_before;
  const int64_t n_hits = RewriteHits() - hits_before;
  EXPECT_GT(n_lookups, 0);
  EXPECT_GT(n_hits, 0);
  EXPECT_LE(n_hits, n_passed);
  EXPECT_LT(n_passed, n_lookups / 2);  // The filter answers most misses.
  // Matching without a database, or with a strategy that ignores it,
  // looks nothing up.
  const auto& [r, s] = Fixture().pairs[0];
  RewriteMatchOptions position_only;
  position_only.strategy = MatchingStrategy::kPositionOnly;
  (void)MatchRewrites(r, s, nullptr);
  (void)MatchRewrites(r, s, &db, position_only);
  EXPECT_EQ(lookups->Value() - lookups_before, n_lookups);
}

/// Seeded pairs over a four-token vocabulary: repeated tokens make many
/// candidates share a score — exact-text pairings at equal distances,
/// geometric candidates of equal rank — so the cover's order rests on the
/// enumeration-order tie-break throughout.
std::vector<std::pair<Snippet, Snippet>> TieHeavyPairs() {
  static const char* const kVocabulary[] = {"a", "b", "c", "d"};
  Rng rng(97);
  const auto random_line = [&rng] {
    std::vector<std::string> line(3 + rng.NextIndex(7));
    for (std::string& token : line) token = kVocabulary[rng.NextIndex(4)];
    return line;
  };
  std::vector<std::pair<Snippet, Snippet>> pairs;
  for (int i = 0; i < 600; ++i) {
    std::vector<std::vector<std::string>> r_lines(1 + rng.NextIndex(3));
    for (auto& line : r_lines) line = random_line();
    // Mostly an edited copy of R, so the diff regions stay local; now and
    // then an unrelated snippet with its own line count.
    std::vector<std::vector<std::string>> s_lines = r_lines;
    if (rng.NextIndex(5) == 0) {
      s_lines.resize(1 + rng.NextIndex(3));
      for (auto& line : s_lines) line = random_line();
    } else {
      for (auto& line : s_lines) {
        for (std::string& token : line) {
          if (rng.NextIndex(3) == 0) token = kVocabulary[rng.NextIndex(4)];
        }
        if (rng.NextIndex(4) == 0) line.push_back(kVocabulary[rng.NextIndex(4)]);
      }
    }
    pairs.emplace_back(Snippet::FromTokens(r_lines), Snippet::FromTokens(s_lines));
  }
  return pairs;
}

/// Rewrites over the vocabulary with equal counts (so equal database
/// scores), one hit whose database score is exactly 0, and a bigram
/// rewrite.
FeatureStatsDb TieHeavyDb() {
  FeatureStatsDb db;
  db.SetStat(RewriteKey("a", "c").key, 3, 5);
  db.SetStat(RewriteKey("b", "d").key, 3, 5);
  db.SetStat(RewriteKey("c", "d").key, 2, 4);
  db.SetStat(RewriteKey("a", "b").key, 0, 0);
  db.SetStat(RewriteKey("a b", "c").key, 7, 9);
  db.BuildRewriteFilter();
  return db;
}

class TieHeavyDifferentialTest : public ::testing::TestWithParam<MatchingStrategy> {};

TEST_P(TieHeavyDifferentialTest, RepeatedTokenPairsMatchTheReference) {
  const FeatureStatsDb db = TieHeavyDb();
  RewriteMatchOptions options;
  options.strategy = GetParam();
  for (const FeatureStatsDb* matching_db : {static_cast<const FeatureStatsDb*>(nullptr), &db}) {
    SCOPED_TRACE(matching_db == nullptr ? "no database" : "tie database");
    size_t mismatches = 0;
    size_t rewrites = 0;
    for (const auto& [r, s] : TieHeavyPairs()) {
      const PairDiff want = ReferenceMatchRewrites(r, s, matching_db, options);
      const std::string difference =
          FirstDifference(r, s, want, MatchRewrites(r, s, matching_db, options));
      rewrites += want.rewrites.size();
      if (difference.empty()) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << r.ToString() << " | " << s.ToString() << ": " << difference;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(rewrites, 600u);
  }
}

std::string StrategyName(const ::testing::TestParamInfo<MatchingStrategy>& info) {
  static const char* const kNames[] = {"GreedyStats", "FirstMatch", "PositionOnly"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, TieHeavyDifferentialTest,
                         ::testing::Values(MatchingStrategy::kGreedyStats,
                                           MatchingStrategy::kFirstMatch,
                                           MatchingStrategy::kPositionOnly),
                         StrategyName);

/// Tokens holding bytes 0x01-0x1f, which sort below the space that joins
/// a phrase's tokens: "a b" > "a\x01" as texts although "a" < "a\x01" as
/// tokens. The canonical rw: order is the texts' order, so token order (or
/// id order) would spell some keys backwards.
const std::vector<std::string>& LowByteVocabulary() {
  static const std::vector<std::string> vocabulary = {
      "a", "b", "a\x01", "\x01", "a\x1f", "\x1f", "b\x10" "a", "\x10"};
  return vocabulary;
}

/// Seeded pairs over LowByteVocabulary, built like TieHeavyPairs.
std::vector<std::pair<Snippet, Snippet>> LowBytePairs() {
  const std::vector<std::string>& vocabulary = LowByteVocabulary();
  Rng rng(1031);
  const auto token = [&] { return vocabulary[rng.NextIndex(vocabulary.size())]; };
  std::vector<std::pair<Snippet, Snippet>> pairs;
  for (int i = 0; i < 600; ++i) {
    std::vector<std::vector<std::string>> r_lines(1 + rng.NextIndex(3));
    for (auto& line : r_lines) {
      line.resize(2 + rng.NextIndex(6));
      for (std::string& t : line) t = token();
    }
    std::vector<std::vector<std::string>> s_lines = r_lines;
    for (auto& line : s_lines) {
      for (std::string& t : line) {
        if (rng.NextIndex(3) == 0) t = token();
      }
      if (rng.NextIndex(4) == 0) line.push_back(token());
    }
    pairs.emplace_back(Snippet::FromTokens(r_lines), Snippet::FromTokens(s_lines));
  }
  return pairs;
}

/// Rewrite statistics between every pair of one- and two-token texts over
/// LowByteVocabulary, each with its own count, so which rewrites a match
/// finds (and so its scores and cover) depends on spelling every key in
/// text order.
FeatureStatsDb LowByteDb() {
  std::vector<std::string> texts = LowByteVocabulary();
  for (const std::string& a : LowByteVocabulary()) {
    for (const std::string& b : LowByteVocabulary()) texts.push_back(a + " " + b);
  }
  FeatureStatsDb db;
  Rng rng(7);
  for (const std::string& from : texts) {
    for (const std::string& to : texts) {
      if (from < to && rng.NextIndex(3) == 0) {
        db.SetStat(RewriteKey(from, to).key, static_cast<int64_t>(rng.NextIndex(5)),
                   static_cast<int64_t>(5 + rng.NextIndex(40)));
      }
    }
  }
  db.BuildRewriteFilter();
  return db;
}

class LowByteDifferentialTest : public ::testing::TestWithParam<MatchingStrategy> {};

TEST_P(LowByteDifferentialTest, LowByteTokensMatchTheReference) {
  const FeatureStatsDb db = LowByteDb();
  RewriteMatchOptions options;
  options.strategy = GetParam();
  const int64_t hits_before = RewriteHits();
  for (const FeatureStatsDb* matching_db : {static_cast<const FeatureStatsDb*>(nullptr), &db}) {
    SCOPED_TRACE(matching_db == nullptr ? "no database" : "low-byte database");
    size_t mismatches = 0;
    size_t rewrites = 0;
    for (const auto& [r, s] : LowBytePairs()) {
      const PairDiff want = ReferenceMatchRewrites(r, s, matching_db, options);
      const PairDiff got = MatchRewrites(r, s, matching_db, options);
      rewrites += want.rewrites.size();
      // The key spelled from the spans is the reference's text-ordered one.
      FeatureKeyBuffer buffer;
      for (const RewriteMatch& rewrite : got.rewrites) {
        double sign = 0.0;
        const std::string_view key = buffer.Rewrite(s, rewrite.s_span, r, rewrite.r_span, &sign);
        const SignedKey expected = RewriteKey(s.SpanText(rewrite.s_span), r.SpanText(rewrite.r_span));
        ASSERT_EQ(key, expected.key);
        ASSERT_EQ(sign, expected.sign);
      }
      const std::string difference = FirstDifference(r, s, want, got);
      if (difference.empty()) continue;
      if (++mismatches <= 5) ADD_FAILURE() << difference;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(rewrites, 600u);
  }
  if (GetParam() == MatchingStrategy::kGreedyStats) {
    EXPECT_GT(RewriteHits() - hits_before, 1000);  // The database steers the cover.
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, LowByteDifferentialTest,
                         ::testing::Values(MatchingStrategy::kGreedyStats,
                                           MatchingStrategy::kFirstMatch,
                                           MatchingStrategy::kPositionOnly),
                         StrategyName);

TEST(LazyCoverTest, CountersTallyCandidatesPopsAndAcceptances) {
  const MatcherFixture& fixture = Fixture();  // Its stats builds match too.
  Counter* candidates = MetricRegistry::Global().GetCounter("mb.rewrite.candidates");
  Counter* popped = MetricRegistry::Global().GetCounter("mb.rewrite.popped");
  Counter* accepted = MetricRegistry::Global().GetCounter("mb.rewrite.accepted");
  const int64_t candidates_before = candidates->Value();
  const int64_t popped_before = popped->Value();
  const int64_t accepted_before = accepted->Value();
  int64_t rewrites = 0;
  for (size_t i = 0; i < 200; ++i) {
    const auto& [r, s] = fixture.pairs[i];
    rewrites += static_cast<int64_t>(MatchRewrites(r, s, &fixture.heap_db).rewrites.size());
  }
  const int64_t n_candidates = candidates->Value() - candidates_before;
  const int64_t n_popped = popped->Value() - popped_before;
  const int64_t n_accepted = accepted->Value() - accepted_before;
  EXPECT_GT(n_accepted, 0);
  EXPECT_LE(n_accepted, n_popped);
  // Shift rewrites come on top of the cover's acceptances.
  EXPECT_LE(n_accepted, rewrites);
  // The cover stops once a side is fully covered, well before the end of
  // the candidate list.
  EXPECT_LT(n_popped, n_candidates / 2);
}

}  // namespace
}  // namespace microbrowse
