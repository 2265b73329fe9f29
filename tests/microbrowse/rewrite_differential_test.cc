// Copyright 2026 The Microbrowse Authors
//
// Differential test wall for the rewrite matcher: the production
// index-based MatchRewrites must reproduce the string-based reference
// (rewrite_reference.h) exactly — rewrites in the same order, identical
// residue — for every ordered sibling pair of a seeded corpus, with no
// database, a heap-loaded database, an mmap pack-loaded database, the
// in-memory build's database and adversarial ones, because the production
// matcher finds its database candidates through the database's rewrite
// partner index and the reference calls Find for every candidate. Also
// checks that the two database layers answer Find identically.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "microbrowse/stats_db.h"
#include "rewrite_reference.h"

namespace microbrowse {
namespace {

/// kHeap and kPack are the TSV and pack loads of kBuilt; kNoRewrites is
/// kHeap with every "rw:" key dropped.
enum class DbKind { kNone, kHeap, kPack, kBuilt, kNoRewrites };

/// A seeded corpus, its ordered sibling pairs and the statistics database
/// built from it by every construction path.
struct MatcherFixture {
  std::vector<std::pair<Snippet, Snippet>> pairs;
  FeatureStatsDb heap_db;
  FeatureStatsDb pack_db;
  FeatureStatsDb built_db;
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
    auto heap = LoadFeatureStats(dir + "/stats.tsv");
    auto pack = LoadStatsPack(dir + "/stats.mbpack");
    std::filesystem::remove_all(dir);  // The loaded pack keeps its mapping.
    if (!heap.ok() || !pack.ok()) {
      ADD_FAILURE() << "reloading the statistics failed";
      return out;
    }
    out->heap_db = std::move(*heap);
    out->pack_db = std::move(*pack);
    out->no_rewrites_db.set_smoothing(out->heap_db.smoothing());
    out->no_rewrites_db.set_min_count(out->heap_db.min_count());
    out->heap_db.ForEach([&](std::string_view key, const FeatureStat& stat) {
      if (key.substr(0, kRewriteKeyPrefix.size()) != kRewriteKeyPrefix) {
        out->no_rewrites_db.SetStat(std::string(key), stat.positive, stat.total);
      }
    });
    out->no_rewrites_db.BuildRewriteIndex();
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

class MatcherDifferentialTest : public ::testing::TestWithParam<DbKind> {
 protected:
  const FeatureStatsDb* Db() const { return DbFor(GetParam()); }
};

TEST_P(MatcherDifferentialTest, EveryOrderedSiblingPairMatchesTheReference) {
  const auto& pairs = Fixture().pairs;
  ASSERT_GT(pairs.size(), 1000u);
  size_t mismatches = 0;
  size_t rewrites = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [r, s] = pairs[i];
    const PairDiff want = ReferenceMatchRewrites(r, s, Db());
    const PairDiff got = MatchRewrites(r, s, Db());
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
  const PairDiff want = ReferenceMatchRewrites(r, s, Db());
  const PairDiff got = MatchRewrites(r, s, Db());
  ASSERT_GT(want.r_only.size(), 65535u);
  EXPECT_EQ(FirstDifference(r, s, want, got), "");
  // The exact-text bigram at R's far end wins.
  ASSERT_FALSE(got.rewrites.empty());
  EXPECT_EQ(got.rewrites[0].r_span.pos, kTokens - 2);
  EXPECT_EQ(got.rewrites[0].s_span.pos, 1);
}

std::string DbName(const ::testing::TestParamInfo<DbKind>& info) {
  static const char* const kDbs[] = {"NoDb", "HeapDb", "PackDb", "BuiltDb", "NoRewritesDb"};
  return kDbs[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllDbs, MatcherDifferentialTest,
                         ::testing::Values(DbKind::kNone, DbKind::kHeap, DbKind::kPack,
                                           DbKind::kBuilt, DbKind::kNoRewrites),
                         DbName);

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

/// The partner hashes `index` lists under `side_hash`, in its order.
std::vector<uint64_t> PartnersOf(const RewritePartnerIndex& index, uint64_t side_hash) {
  std::vector<uint64_t> partners;
  index.ForEachPartner(side_hash, [&](uint64_t partner) { partners.push_back(partner); });
  return partners;
}

/// Whether `partners` lists `hash`.
bool Lists(const std::vector<uint64_t>& partners, uint64_t hash) {
  return std::find(partners.begin(), partners.end(), hash) != partners.end();
}

TEST(RewritePartnerIndexTest, EveryInsertedPairIsFoundFromBothSides) {
  // Sides drawn from a small pool, so most have several partners, plus
  // pairs of a side with itself.
  Rng rng(7);
  std::vector<uint64_t> pool(3000);
  for (uint64_t& hash : pool) hash = rng.NextU64();
  std::vector<std::pair<uint64_t, uint64_t>> pairs(20000);
  for (auto& [a, b] : pairs) {
    a = pool[rng.NextIndex(pool.size())];
    b = rng.NextIndex(10) == 0 ? a : pool[rng.NextIndex(pool.size())];
  }
  const RewritePartnerIndex index(pairs);
  std::unordered_map<uint64_t, std::vector<uint64_t>> want;
  for (const auto& [a, b] : pairs) {
    want[a].push_back(b);
    if (a != b) want[b].push_back(a);
  }
  EXPECT_EQ(index.num_sides(), want.size());
  for (auto& [side, partners] : want) {
    std::vector<uint64_t> sorted_got = PartnersOf(index, side);
    std::sort(sorted_got.begin(), sorted_got.end());
    std::sort(partners.begin(), partners.end());
    ASSERT_EQ(sorted_got, partners) << side;
  }
}

TEST(RewritePartnerIndexTest, EmptyIndexRulesOutEverything) {
  const RewritePartnerIndex index({});
  EXPECT_EQ(index.num_sides(), 0u);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(PartnersOf(index, rng.NextU64()).empty());
}

TEST(RewriteFilterTest, EveryConstructionPathBuildsAFilterWithoutFalseNegatives) {
  // The filter is the rewrite partner index: every reading of every rw:
  // key is found from both of its sides.
  const MatcherFixture& fixture = Fixture();
  const std::pair<const char*, const FeatureStatsDb*> dbs[] = {
      {"built", &fixture.built_db},
      {"tsv", &fixture.heap_db},
      {"pack", &fixture.pack_db}};
  for (const auto& [name, db] : dbs) {
    const RewritePartnerIndex* index = db->rewrite_index();
    ASSERT_NE(index, nullptr) << name;
    size_t readings = 0;
    db->ForEach([&](std::string_view key, const FeatureStat&) {
      ForEachRewriteSides(key, [&](uint64_t lo, uint64_t hi) {
        ASSERT_TRUE(Lists(PartnersOf(*index, lo), hi)) << name << " '" << key << "'";
        ASSERT_TRUE(Lists(PartnersOf(*index, hi), lo)) << name << " '" << key << "'";
        ++readings;
      });
    });
    EXPECT_GT(readings, 100u) << name;
  }
  // The rewrite-free database's index rules out every rewrite.
  const RewritePartnerIndex* empty = fixture.no_rewrites_db.rewrite_index();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->num_sides(), 0u);
  fixture.heap_db.ForEach([&](std::string_view key, const FeatureStat&) {
    ForEachRewriteSides(key, [&](uint64_t lo, uint64_t hi) {
      ASSERT_TRUE(PartnersOf(*empty, lo).empty()) << key;
      ASSERT_TRUE(PartnersOf(*empty, hi).empty()) << key;
    });
  });
}

TEST(RewriteFilterTest, EveryCandidateTheDatabaseHoldsIsReachedByTheIndex) {
  // Candidate by candidate, over every fixture pair: the candidates are
  // the R x S region grams, which MatchRewrites returns as its residue,
  // and each one whose canonical key Finds must be among the partners of
  // its R gram's side hash, folded as the matcher folds it.
  const MatcherFixture& fixture = Fixture();
  for (const FeatureStatsDb* db : {&fixture.heap_db, &fixture.pack_db}) {
    const RewritePartnerIndex* index = db->rewrite_index();
    ASSERT_NE(index, nullptr);
    FeatureKeyBuffer key;
    size_t found = 0;
    for (const auto& [r, s] : fixture.pairs) {
      const PairTokens tokens(r, s);
      const PairDiff diff = MatchRewrites(r, s, tokens, db);
      for (const TermSpan& r_span : diff.r_only) {
        const std::vector<uint64_t> partners =
            PartnersOf(*index, tokens.SpanHash(PairSide::kR, r_span));
        for (const TermSpan& s_span : diff.s_only) {
          double sign = 0.0;
          if (db->Find(key.Rewrite(s, s_span, r, r_span, &sign)) == nullptr) continue;
          ++found;
          ASSERT_TRUE(Lists(partners, tokens.SpanHash(PairSide::kS, s_span)))
              << r.SpanText(r_span) << " -> " << s.SpanText(s_span);
        }
      }
    }
    EXPECT_GT(found, fixture.pairs.size());
  }
}

/// Runs both matchers on the one-line pair (r, s) against `db` and
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
  built.BuildRewriteIndex();
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
    ASSERT_NE(db->rewrite_index(), nullptr);
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
  // A rewrite added after the index was built must still be found: each
  // mutator drops the index, so the matcher sends every candidate to Find.
  const std::vector<std::string> r = {"x", "cheap", "y"};
  const std::vector<std::string> s = {"x", "deals", "z"};
  const std::pair<const char*, std::function<void(FeatureStatsDb*)>> mutators[] = {
      {"AddObservation", [](FeatureStatsDb* db) { db->AddObservation("rw:cheap=>deals", +1); }},
      {"SetStat", [](FeatureStatsDb* db) { db->SetStat("rw:cheap=>deals", 4, 6); }},
  };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    FeatureStatsDb db;
    db.SetStat("rw:alpha=>beta", 3, 5);
    db.SetStat("t:cheap", 1, 2);
    db.BuildRewriteIndex();
    ASSERT_NE(db.rewrite_index(), nullptr);
    // Precondition: the index as built rules the new rewrite out, so a
    // stale index would hide it.
    ASSERT_TRUE(PartnersOf(*db.rewrite_index(), RewriteSideHash("cheap")).empty());
    const PairDiff before = MatchOneLine(r, s, db);
    ASSERT_FALSE(before.rewrites.empty());
    EXPECT_EQ(LineSpanText(r, before.rewrites[0].r_span), "x cheap y");

    mutate(&db);
    EXPECT_EQ(db.rewrite_index(), nullptr);
    const PairDiff after = MatchOneLine(r, s, db);
    ASSERT_FALSE(after.rewrites.empty());
    EXPECT_EQ(LineSpanText(r, after.rewrites[0].r_span), "cheap");
    EXPECT_EQ(LineSpanText(s, after.rewrites[0].s_span), "deals");

    db.BuildRewriteIndex();  // Rebuilt, the index reaches the new rewrite.
    EXPECT_EQ(FirstDifference(Snippet::FromTokens({r}), Snippet::FromTokens({s}), after,
                              MatchOneLine(r, s, db)),
              "");
  }
}

/// Deltas of the mb.rewrite.* counters over a stretch of matching.
class RewriteCounters {
 public:
  RewriteCounters() {
    for (size_t i = 0; i < kNames.size(); ++i) before_[i] = Get(i)->Value();
  }
  int64_t lookups() const { return Delta(0); }
  int64_t filter_passed() const { return Delta(1); }
  int64_t hits() const { return Delta(2); }
  int64_t candidates() const { return Delta(3); }
  int64_t popped() const { return Delta(4); }
  int64_t accepted() const { return Delta(5); }

 private:
  static constexpr std::array<const char*, 6> kNames = {
      "mb.rewrite.lookups",    "mb.rewrite.filter_passed", "mb.rewrite.hits",
      "mb.rewrite.candidates", "mb.rewrite.popped",        "mb.rewrite.accepted"};
  static Counter* Get(size_t i) { return MetricRegistry::Global().GetCounter(kNames[i]); }
  int64_t Delta(size_t i) const { return Get(i)->Value() - before_[i]; }
  std::array<int64_t, kNames.size()> before_{};
};

TEST(RewriteFilterTest, CountersTallyLookupsFilterPassesAndHits) {
  // lookups: the non-identity R x S candidates, all of which the index
  // answers; filter_passed: the candidates the index reached and sent to
  // Find; hits: those Find found.
  const MatcherFixture& fixture = Fixture();
  const FeatureStatsDb& db = fixture.heap_db;
  FeatureStatsDb no_index = db;
  // Rewriting a key's own counts changes no count but drops the index.
  const auto& [first_key, first_stat] = *db.stats().begin();
  no_index.SetStat(first_key, first_stat.positive, first_stat.total);
  ASSERT_EQ(no_index.rewrite_index(), nullptr);
  int64_t want_reached = 0;
  const RewriteCounters indexed;
  for (size_t i = 0; i < 200; ++i) {
    const auto& [r, s] = fixture.pairs[i];
    const PairTokens tokens(r, s);
    const PairDiff diff = MatchRewrites(r, s, tokens, &db);
    // The candidates the index reaches: a non-identity pair whose S gram's
    // side hash is a partner of its R gram's.
    for (const TermSpan& r_span : diff.r_only) {
      const std::vector<uint64_t> partners =
          PartnersOf(*db.rewrite_index(), tokens.SpanHash(PairSide::kR, r_span));
      for (const TermSpan& s_span : diff.s_only) {
        const bool identity = r_span == s_span && r.SpanText(r_span) == s.SpanText(s_span);
        want_reached += !identity && Lists(partners, tokens.SpanHash(PairSide::kS, s_span));
      }
    }
  }
  const int64_t lookups = indexed.lookups();
  const int64_t hits = indexed.hits();
  EXPECT_GT(lookups, 0);
  EXPECT_GT(hits, 0);
  EXPECT_EQ(indexed.filter_passed(), want_reached);
  EXPECT_LE(hits, indexed.filter_passed());
  EXPECT_LT(indexed.filter_passed(), lookups / 2);  // The index skips most pairs.

  // Without an index every lookup goes to Find, and Find finds the same.
  const RewriteCounters unindexed;
  for (size_t i = 0; i < 200; ++i) {
    const auto& [r, s] = fixture.pairs[i];
    (void)MatchRewrites(r, s, &no_index);
  }
  EXPECT_EQ(unindexed.lookups(), lookups);
  EXPECT_EQ(unindexed.filter_passed(), lookups);
  EXPECT_EQ(unindexed.hits(), hits);

  // Matching without a database looks nothing up.
  const RewriteCounters ignored;
  const auto& [r, s] = fixture.pairs[0];
  (void)MatchRewrites(r, s, nullptr);
  EXPECT_EQ(ignored.lookups(), 0);
  EXPECT_EQ(ignored.filter_passed(), 0);
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
  db.BuildRewriteIndex();
  return db;
}

TEST(TieHeavyDifferentialTest, RepeatedTokenPairsMatchTheReference) {
  const FeatureStatsDb db = TieHeavyDb();
  for (const FeatureStatsDb* matching_db : {static_cast<const FeatureStatsDb*>(nullptr), &db}) {
    SCOPED_TRACE(matching_db == nullptr ? "no database" : "tie database");
    size_t mismatches = 0;
    size_t rewrites = 0;
    for (const auto& [r, s] : TieHeavyPairs()) {
      const PairDiff want = ReferenceMatchRewrites(r, s, matching_db);
      const std::string difference =
          FirstDifference(r, s, want, MatchRewrites(r, s, matching_db));
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
  db.BuildRewriteIndex();
  return db;
}

TEST(LowByteDifferentialTest, LowByteTokensMatchTheReference) {
  const FeatureStatsDb db = LowByteDb();
  const int64_t hits_before = RewriteHits();
  for (const FeatureStatsDb* matching_db : {static_cast<const FeatureStatsDb*>(nullptr), &db}) {
    SCOPED_TRACE(matching_db == nullptr ? "no database" : "low-byte database");
    size_t mismatches = 0;
    size_t rewrites = 0;
    for (const auto& [r, s] : LowBytePairs()) {
      const PairDiff want = ReferenceMatchRewrites(r, s, matching_db);
      const PairDiff got = MatchRewrites(r, s, matching_db);
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
  EXPECT_GT(RewriteHits() - hits_before, 1000);  // The database steers the cover.
}

TEST(LazyCoverTest, CountersTallyCandidatesPopsAndAcceptances) {
  // candidates: the scored candidates plus the geometric ones the cover
  // materialized, over the grams still free after the scored phase.
  {
    // One line, "x cheap y" against "x deals y", with the database holding
    // cheap -> deals: of the 34 non-identity R x S pairs, one is scored;
    // once it covers "cheap" and "deals", only x and y are free on either
    // side, and of their four pairs two are identities.
    FeatureStatsDb db;
    db.SetStat(RewriteKey("deals", "cheap").key, 4, 6);
    db.BuildRewriteIndex();
    const RewriteCounters counters;
    const PairDiff diff = MatchOneLine({"x", "cheap", "y"}, {"x", "deals", "y"}, db);
    EXPECT_EQ(counters.lookups(), 34);
    EXPECT_EQ(counters.filter_passed(), 1);
    EXPECT_EQ(counters.hits(), 1);
    EXPECT_EQ(counters.candidates(), 3);
    EXPECT_EQ(counters.popped(), 3);
    EXPECT_EQ(counters.accepted(), 3);
    ASSERT_EQ(diff.rewrites.size(), 3u);
    EXPECT_EQ(diff.rewrites[0].r_span, (TermSpan{0, 1, 1}));
    EXPECT_EQ(diff.rewrites[0].s_span, (TermSpan{0, 1, 1}));
  }
  const MatcherFixture& fixture = Fixture();
  const RewriteCounters counters;
  int64_t rewrites = 0;
  int64_t pairs = 0;  // The R x S candidate pairs of the old enumeration.
  for (size_t i = 0; i < 200; ++i) {
    const auto& [r, s] = fixture.pairs[i];
    const PairDiff diff = MatchRewrites(r, s, &fixture.heap_db);
    rewrites += static_cast<int64_t>(diff.rewrites.size());
    pairs += static_cast<int64_t>(diff.r_only.size() * diff.s_only.size());
  }
  EXPECT_GT(counters.accepted(), 0);
  EXPECT_LE(counters.accepted(), counters.popped());
  EXPECT_LE(counters.popped(), counters.candidates());
  // Shift rewrites come on top of the cover's acceptances.
  EXPECT_LE(counters.accepted(), rewrites);
  // Most R x S pairs are never materialized: the scored ones are found by
  // lookup, and geometric ones only over the grams the cover left free.
  EXPECT_LT(counters.candidates(), pairs / 4);
}

TEST(LazyCoverTest, DatabaseScoreBelowTheTopGeometricScoreIsMerged) {
  // R's one line ends in "cheap" 28,040 tokens in; S has "s0 s1 s2" on
  // line 0 and "deals" on line 1. The database's cheap -> deals scores
  // 1e4·ln 2 + 1e2·ln 3 + 20 − 3 − 0.25·28,040 ≈ 48.3: below 10·C = 60, the
  // top geometric score, so it cannot be popped in the scored phase. The
  // cover must take the geometric (r0 r1 r2, s0 s1 s2) at 60 first, then
  // cheap -> deals, which beats every geometric candidate left for
  // "deals" (at most 40 − 3 − 0.75). Popping every scored candidate before
  // any geometric one swaps the two.
  constexpr int kCheapPos = 28040;
  std::vector<std::string> r_line;
  for (int i = 0; i < kCheapPos; ++i) r_line.push_back("r" + std::to_string(i));
  r_line.push_back("cheap");
  const Snippet r = Snippet::FromTokens({r_line});
  const Snippet s = Snippet::FromTokens({{"s0", "s1", "s2"}, {"deals"}});

  FeatureStatsDb built;
  built.SetStat(RewriteKey("deals", "cheap").key, 1, 1);
  built.BuildRewriteIndex();
  const std::string dir =
      ::testing::TempDir() + "/rewrite_interleave_" + std::to_string(::getpid());
  ASSERT_TRUE(CreateDirectories(dir).ok());
  ASSERT_TRUE(SaveFeatureStats(built, dir + "/stats.tsv").ok());
  ASSERT_TRUE(SaveStatsPack(built, dir + "/stats.mbpack").ok());
  auto tsv = LoadFeatureStats(dir + "/stats.tsv");
  auto pack = LoadStatsPack(dir + "/stats.mbpack");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(tsv.ok() && pack.ok());

  const std::pair<const char*, const FeatureStatsDb*> dbs[] = {
      {"heap", &built}, {"tsv", &*tsv}, {"pack", &*pack}};
  for (const auto& [name, db] : dbs) {
    SCOPED_TRACE(name);
    const RewriteCounters counters;
    const PairDiff want = ReferenceMatchRewrites(r, s, db);
    const PairDiff got = MatchRewrites(r, s, db);
    EXPECT_EQ(FirstDifference(r, s, want, got), "");
    EXPECT_EQ(counters.hits(), 1);
    // Nothing is popped before phase 2, so every R x S pair is listed once:
    // the scored one, and every other one as geometric.
    EXPECT_EQ(counters.candidates(), static_cast<int64_t>(got.r_only.size() * got.s_only.size()));
    ASSERT_EQ(got.rewrites.size(), 2u);
    EXPECT_EQ(got.rewrites[0].r_span, (TermSpan{0, 0, 3}));
    EXPECT_EQ(got.rewrites[0].s_span, (TermSpan{0, 0, 3}));
    EXPECT_EQ(got.rewrites[1].r_span, (TermSpan{0, kCheapPos, 1}));
    EXPECT_EQ(got.rewrites[1].s_span, (TermSpan{1, 0, 1}));
  }
}

}  // namespace
}  // namespace microbrowse
