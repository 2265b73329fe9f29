// Copyright 2026 The Microbrowse Authors
//
// Tests for feature keys, the statistics database and rewrite matching.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "microbrowse/stats_db.h"
#include "text/ngram.h"
#include "text/pair_tokens.h"

namespace microbrowse {
namespace {

// --- feature_keys.h

TEST(FeatureKeysTest, PositionBuckets) {
  EXPECT_EQ(MakePositionKey(0, 0), (PositionKey{0, 0}));
  EXPECT_EQ(MakePositionKey(1, 5), (PositionKey{1, 5}));
  EXPECT_EQ(MakePositionKey(9, 99), (PositionKey{kMaxLineBucket, kMaxPosBucket}));
  EXPECT_EQ(MakePositionKey(-1, -3), (PositionKey{0, 0}));
}

TEST(FeatureKeysTest, TermAndPositionKeys) {
  EXPECT_EQ(TermKey("find cheap"), "t:find cheap");
  EXPECT_EQ(TermPositionKey(PositionKey{1, 3}), "p:1:3");
  EXPECT_EQ(TermConjunctionKey("cheap", PositionKey{2, 0}), "tp:cheap@2:0");
}

TEST(FeatureKeysTest, RewriteKeyCanonicalisation) {
  const SignedKey forward = RewriteKey("apple", "banana");
  EXPECT_EQ(forward.key, "rw:apple=>banana");
  EXPECT_EQ(forward.sign, 1.0);
  const SignedKey backward = RewriteKey("banana", "apple");
  EXPECT_EQ(backward.key, forward.key);
  EXPECT_EQ(backward.sign, -1.0);
}

TEST(FeatureKeysTest, SelfRewriteKeepsPositiveSign) {
  const SignedKey key = RewriteKey("same", "same");
  EXPECT_EQ(key.key, "rw:same=>same");
  EXPECT_EQ(key.sign, 1.0);
}

TEST(FeatureKeysTest, RewritePositionKeyIsOrdered) {
  const PositionKey a{1, 0};
  const PositionKey b{2, 3};
  EXPECT_EQ(RewritePositionKey(a, b), "pp:1:0=>2:3");
  EXPECT_EQ(RewritePositionKey(b, a), "pp:2:3=>1:0");
  EXPECT_NE(RewritePositionKey(a, b), RewritePositionKey(b, a));
}

TEST(FeatureKeysTest, BuildersMatchPrintfSpelling) {
  // The key builders append their parts directly; the keys persisted in
  // stats and model artifacts were spelled by these format strings.
  const std::vector<PositionKey> positions = {
      {0, 0}, {1, 3}, {2, 7}, {-1, -3}, {12, 345}, {-40, 7}, {INT_MIN, INT_MAX}};
  const std::vector<std::string> texts = {
      "",    "cheap", "find cheap", "a@b", "1:2", "x=>y", "=>", "@:=>", "caf\xc3\xa9 \xe2\x82\xac" "5",
      "\xff\xfe"};
  const auto printf_text = [](const std::string& text) {
    return std::make_pair(static_cast<int>(text.size()), text.data());
  };
  for (const PositionKey& a : positions) {
    EXPECT_EQ(TermPositionKey(a), StrFormat("p:%d:%d", a.line, a.bucket));
    for (const PositionKey& b : positions) {
      EXPECT_EQ(RewritePositionKey(a, b),
                StrFormat("pp:%d:%d=>%d:%d", a.line, a.bucket, b.line, b.bucket));
    }
    for (const std::string& text : texts) {
      const auto [size, data] = printf_text(text);
      EXPECT_EQ(TermConjunctionKey(text, a),
                StrFormat("tp:%.*s@%d:%d", size, data, a.line, a.bucket));
    }
  }
  for (const std::string& from : texts) {
    for (const std::string& to : texts) {
      const bool flip = std::string_view(to) < std::string_view(from);
      const std::string& lo = flip ? to : from;
      const std::string& hi = flip ? from : to;
      const auto [lo_size, lo_data] = printf_text(lo);
      const auto [hi_size, hi_data] = printf_text(hi);
      const SignedKey key = RewriteKey(from, to);
      EXPECT_EQ(key.key, StrFormat("rw:%.*s=>%.*s", lo_size, lo_data, hi_size, hi_data))
          << from << " -> " << to;
      EXPECT_EQ(key.sign, flip ? -1.0 : 1.0) << from << " -> " << to;
      // Both raw orders canonicalise to one key with opposite signs
      // (a self-rewrite keeps +1 either way).
      const SignedKey reverse = RewriteKey(to, from);
      EXPECT_EQ(reverse.key, key.key);
      EXPECT_EQ(reverse.sign, from == to ? 1.0 : -key.sign);
    }
  }
}

TEST(FeatureKeysTest, KeyBufferSpellsWhatTheStringBuildersSpell) {
  // Tokens with key syntax, bytes below the joining space and a long one,
  // so that spelling into a reused buffer shrinks as well as grows.
  const Snippet r = Snippet::FromTokens(
      {{"find", "cheap", "abcdefghijklmnopqrstuvwxyz"}, {"x=>y", "a\x01", "@", ""}});
  const Snippet s = Snippet::FromTokens({{"a", "b", "=>", "1:2"}, {"a", "\x1f"}, {"tail"}});
  FeatureKeyBuffer buffer;
  for (const Snippet* snippet : {&r, &s}) {
    for (const TermSpan& span : ExtractNGrams(*snippet, 3)) {
      const std::string text = snippet->SpanText(span);
      EXPECT_EQ(buffer.Term(*snippet, span), TermKey(text));
      EXPECT_EQ(buffer.TermConjunction(*snippet, span),
                TermConjunctionKey(text, MakePositionKey(span)));
      EXPECT_EQ(buffer.TermPosition(MakePositionKey(span)),
                TermPositionKey(MakePositionKey(span)));
    }
  }
  for (const TermSpan& from : ExtractNGrams(s, 3)) {
    for (const TermSpan& to : ExtractNGrams(r, 3)) {
      double sign = 0.0;
      const SignedKey want = RewriteKey(s.SpanText(from), r.SpanText(to));
      EXPECT_EQ(buffer.Rewrite(s, from, r, to, &sign), want.key);
      EXPECT_EQ(sign, want.sign);
      EXPECT_EQ(buffer.RewritePosition(MakePositionKey(to), MakePositionKey(from)),
                RewritePositionKey(MakePositionKey(to), MakePositionKey(from)));
    }
  }
}

TEST(FeatureKeysTest, PositionIndexesNumberEveryPositionKeyOnce) {
  // Every term position and every ordered pair of them has its own index,
  // all below kNumPositionIndexes, and the buffer spells each index's key.
  std::vector<std::string> spelled(kNumPositionIndexes);
  FeatureKeyBuffer buffer;
  for (int line = 0; line <= kMaxLineBucket; ++line) {
    for (int bucket = 0; bucket <= kMaxPosBucket; ++bucket) {
      const PositionKey r{line, bucket};
      const int term = TermPositionIndex(r);
      ASSERT_GE(term, 0);
      ASSERT_LT(term, kNumPositions);
      EXPECT_TRUE(spelled[term].empty()) << term;
      spelled[term] = TermPositionKey(r);
      EXPECT_EQ(buffer.Position(term), spelled[term]);
      for (int s_line = 0; s_line <= kMaxLineBucket; ++s_line) {
        for (int s_bucket = 0; s_bucket <= kMaxPosBucket; ++s_bucket) {
          const PositionKey s{s_line, s_bucket};
          const int pair = RewritePositionIndex(r, s);
          ASSERT_GE(pair, kNumPositions);
          ASSERT_LT(pair, kNumPositionIndexes);
          EXPECT_TRUE(spelled[pair].empty()) << pair;
          spelled[pair] = RewritePositionKey(r, s);
          EXPECT_EQ(buffer.Position(pair), spelled[pair]);
        }
      }
    }
  }
  EXPECT_EQ(std::count(spelled.begin(), spelled.end(), std::string()), 0);
}

TEST(FeatureKeysTest, SpansFoldToTheSideHashAndKeysSplitIntoTheirSides) {
  // The matcher folds side hashes from token pieces instead of hashing the
  // text, and looks a pair up by its sides in either order.
  const Snippet r = Snippet::FromTokens({{"find", "cheap", "a\x01"}});
  const Snippet s = Snippet::FromTokens({{"a", "b", "get", "discounts"}});
  const PairTokens tokens(r, s);
  for (const TermSpan& a : ExtractNGrams(r, 3)) {
    const uint64_t a_hash = tokens.SpanHash(PairSide::kR, a);
    ASSERT_EQ(a_hash, RewriteSideHash(r.SpanText(a)));
    for (const TermSpan& b : ExtractNGrams(s, 3)) {
      const uint64_t b_hash = tokens.SpanHash(PairSide::kS, b);
      ASSERT_EQ(b_hash, RewriteSideHash(s.SpanText(b)));
      // The stats side reads the side hashes back out of the key text.
      const std::string key = RewriteKey(s.SpanText(b), r.SpanText(a)).key;
      int readings = 0;
      ForEachRewriteSides(key, [&](uint64_t lo, uint64_t hi) {
        readings += (lo == a_hash && hi == b_hash) || (lo == b_hash && hi == a_hash);
      });
      EXPECT_EQ(readings, 1) << key;
    }
  }
}

// --- FeatureStatsDb

TEST(StatsDbTest, ObservationsAccumulate) {
  FeatureStatsDb db;
  db.AddObservation("t:x", +1);
  db.AddObservation("t:x", +1);
  db.AddObservation("t:x", -1);
  const FeatureStat* stat = db.Find("t:x");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->positive, 2);
  EXPECT_EQ(stat->total, 3);
  EXPECT_EQ(db.Count("t:x"), 3);
  EXPECT_EQ(db.Count("t:y"), 0);
}

TEST(StatsDbTest, SmoothedStatisticsAndOdds) {
  FeatureStat stat;
  stat.positive = 3;
  stat.total = 4;
  EXPECT_NEAR(stat.SmoothedP(1.0), 3.5 / 5.0, 1e-12);
  EXPECT_NEAR(stat.OddsRatio(1.0), 0.7 / 0.3, 1e-12);
  EXPECT_NEAR(stat.LogOdds(1.0), std::log(0.7 / 0.3), 1e-9);
}

TEST(StatsDbTest, UnseenKeysAreNeutral) {
  FeatureStatsDb db;
  EXPECT_EQ(db.LogOdds("missing"), 0.0);
  EXPECT_EQ(db.OddsRatio("missing"), 1.0);
}

TEST(StatsDbTest, MinCountGatesStatistics) {
  FeatureStatsDb db;
  db.set_min_count(3);
  db.AddObservation("t:rare", +1);
  db.AddObservation("t:rare", +1);
  EXPECT_EQ(db.LogOdds("t:rare"), 0.0);  // Below support: neutral.
  EXPECT_EQ(db.OddsRatio("t:rare"), 1.0);
  db.AddObservation("t:rare", +1);
  EXPECT_GT(db.LogOdds("t:rare"), 0.0);  // At support: real statistic.
}

// --- Rewrite matching

Snippet MakeSnippet(std::vector<std::vector<std::string>> lines) {
  return Snippet::FromTokens(std::move(lines));
}

/// `span`'s tokens joined by spaces, spelled independently of SpanText.
std::string JoinTokens(const Snippet& snippet, const TermSpan& span) {
  const auto& tokens = snippet.line(span.line);
  return Join(std::vector<std::string>(tokens.begin() + span.pos,
                                       tokens.begin() + span.pos + span.len),
              " ");
}

bool HasRewrite(const PairDiff& diff, const Snippet& r, const Snippet& s,
                const std::string& r_text, const std::string& s_text) {
  for (const auto& rewrite : diff.rewrites) {
    if (r.SpanText(rewrite.r_span) == r_text && s.SpanText(rewrite.s_span) == s_text) {
      return true;
    }
  }
  return false;
}

TEST(RewriteMatchTest, IdenticalSnippetsProduceNothing) {
  const Snippet snippet = MakeSnippet({{"a", "b"}, {"c"}});
  const PairDiff diff = MatchRewrites(snippet, snippet, nullptr);
  EXPECT_TRUE(diff.empty());
}

TEST(RewriteMatchTest, SimpleSubstitutionIsMatched) {
  const Snippet r = MakeSnippet({{"brand"}, {"find", "cheap", "flights"}});
  const Snippet s = MakeSnippet({{"brand"}, {"find", "best", "flights"}});
  const PairDiff diff = MatchRewrites(r, s, nullptr);
  ASSERT_FALSE(diff.rewrites.empty());
  // Some candidate pairing covers "cheap" <-> "best" (possibly with
  // expanded context).
  bool covered = false;
  for (const auto& rewrite : diff.rewrites) {
    if (r.SpanText(rewrite.r_span).find("cheap") != std::string::npos &&
        s.SpanText(rewrite.s_span).find("best") != std::string::npos) {
      covered = true;
    }
  }
  EXPECT_TRUE(covered);
}

TEST(RewriteMatchTest, CrossLineMoveMatchedExactly) {
  // "20% off" moves from line 2 to line 1: the matcher must pair the
  // identical text across lines (a pure move).
  const Snippet r = MakeSnippet({{"brand"}, {"20%", "off"}, {"great", "rates"}});
  const Snippet s = MakeSnippet({{"brand"}, {"great", "rates"}, {"20%", "off"}});
  const PairDiff diff = MatchRewrites(r, s, nullptr);
  EXPECT_TRUE(HasRewrite(diff, r, s, "20% off", "20% off"));
  EXPECT_TRUE(HasRewrite(diff, r, s, "great rates", "great rates"));
}

TEST(RewriteMatchTest, ShiftRewritesForDisplacedSharedContent) {
  // Replacing a 1-token action with a 3-token action displaces the shared
  // tail of the line; the matcher reports the displaced tokens as
  // same-text rewrites with different positions.
  const Snippet r = MakeSnippet({{"book", "flights", "to", "rome"}});
  const Snippet s = MakeSnippet({{"get", "discounts", "on", "flights", "to", "rome"}});
  const PairDiff diff = MatchRewrites(r, s, nullptr);
  bool found_shift = false;
  for (const auto& rewrite : diff.rewrites) {
    if (r.SpanText(rewrite.r_span) == s.SpanText(rewrite.s_span) &&
        rewrite.r_span.pos != rewrite.s_span.pos) {
      found_shift = true;
      EXPECT_EQ(rewrite.r_span.line, rewrite.s_span.line);
    }
  }
  EXPECT_TRUE(found_shift);
}

TEST(RewriteMatchTest, StatsGuidedMatchingPrefersFrequentRewrite) {
  // DB says "find cheap" => "get discounts" is a common rewrite; the
  // matcher should prefer pairing those phrases over fragment pairings.
  FeatureStatsDb db;
  for (int i = 0; i < 50; ++i) {
    db.AddObservation(RewriteKey("find cheap", "get discounts").key, +1);
  }
  const Snippet r = MakeSnippet({{"get", "discounts", "flights"}});
  const Snippet s = MakeSnippet({{"find", "cheap", "flights"}});
  const PairDiff diff = MatchRewrites(r, s, &db);
  EXPECT_TRUE(HasRewrite(diff, r, s, "get discounts", "find cheap"));
}

TEST(RewriteMatchTest, TextChangingRewritesAreTokenDisjoint) {
  // The greedy cover must never assign one token to two text-changing
  // rewrites on the same side. (Same-text shift rewrites tile sub-grams
  // and are exempt by construction.)
  const Snippet r = MakeSnippet({{"a", "b", "c", "d", "e"}, {"x", "y"}});
  const Snippet s = MakeSnippet({{"p", "q", "c", "r", "s"}, {"w", "y"}});
  const PairDiff diff = MatchRewrites(r, s, nullptr);
  auto check_disjoint = [&](bool r_side) {
    std::vector<std::vector<int>> covered(3, std::vector<int>(16, 0));
    for (const auto& rewrite : diff.rewrites) {
      if (r.SpanText(rewrite.r_span) == s.SpanText(rewrite.s_span)) continue;  // Shift/move.
      const TermSpan& span = r_side ? rewrite.r_span : rewrite.s_span;
      for (int i = 0; i < span.len; ++i) {
        EXPECT_EQ(covered[span.line][span.pos + i]++, 0)
            << "overlap at line " << span.line << " pos " << span.pos + i;
      }
    }
  };
  check_disjoint(true);
  check_disjoint(false);
}

TEST(RewriteMatchTest, EmptySnippets) {
  const PairDiff diff = MatchRewrites(Snippet(), Snippet(), nullptr);
  EXPECT_TRUE(diff.empty());
  const Snippet nonempty = MakeSnippet({{"a"}});
  const PairDiff one_sided = MatchRewrites(nonempty, Snippet(), nullptr);
  EXPECT_TRUE(one_sided.rewrites.empty());
  EXPECT_FALSE(one_sided.r_only.empty());
}

TEST(RewriteMatchTest, PureInsertionBecomesLeftoverTerms) {
  const Snippet r = MakeSnippet({{"a", "b", "extra", "c"}});
  const Snippet s = MakeSnippet({{"a", "b", "c"}});
  const PairDiff diff = MatchRewrites(r, s, nullptr);
  // The insertion displaces "c", which surfaces as a same-text shift
  // rewrite; no text-changing rewrite may appear.
  for (const auto& rewrite : diff.rewrites) {
    EXPECT_EQ(r.SpanText(rewrite.r_span), s.SpanText(rewrite.s_span));
  }
  // S differs nowhere, so nothing is matched: the insertion and the two
  // tokens of context annexed on each side, here all of R, are left over.
  EXPECT_EQ(diff.r_only, ExtractNGrams(r));
  EXPECT_TRUE(diff.s_only.empty());
}

TEST(RewriteMatchTest, ContextExpansionRecoversFullPhrase) {
  // Token-sharing rewrite: raw diff is only "cheap" vs "deals on"; with
  // expansion the matcher can pair the full phrases.
  const Snippet r = MakeSnippet({{"find", "cheap", "flights"}});
  const Snippet s = MakeSnippet({{"find", "deals", "on", "flights"}});
  FeatureStatsDb db;
  for (int i = 0; i < 30; ++i) {
    db.AddObservation(RewriteKey("find deals on", "find cheap").key, +1);
  }
  const PairDiff diff = MatchRewrites(r, s, &db);
  EXPECT_TRUE(HasRewrite(diff, r, s, "find cheap", "find deals on"));
}

TEST(RewriteMatchTest, MatchedSpansAreValid) {
  const Snippet r = MakeSnippet({{"brand", "one"},
                                 {"save", "big", "on", "hotel", "rooms"},
                                 {"free", "cancellation", "and", "20%", "off"}});
  const Snippet s = MakeSnippet({{"brand", "one"},
                                 {"book", "hotel", "rooms", "today"},
                                 {"20%", "off", "plus", "free", "cancellation"}});
  const PairDiff diff = MatchRewrites(r, s, nullptr);
  auto check_span = [](const Snippet& snippet, const TermSpan& span) {
    ASSERT_GE(span.line, 0);
    ASSERT_LT(span.line, snippet.num_lines());
    ASSERT_GE(span.pos, 0);
    ASSERT_LE(span.pos + span.len, static_cast<int>(snippet.line(span.line).size()));
    EXPECT_EQ(snippet.SpanText(span), JoinTokens(snippet, span));
  };
  for (const auto& rewrite : diff.rewrites) {
    check_span(r, rewrite.r_span);
    check_span(s, rewrite.s_span);
  }
  for (const auto& span : diff.r_only) check_span(r, span);
  for (const auto& span : diff.s_only) check_span(s, span);
}

// --- BuildFeatureStats end-to-end

PairCorpus TinyPairCorpus() {
  PairCorpus corpus;
  // Three adgroups all exhibiting the rewrite "slow" -> "fast", where the
  // "fast" creative always has the higher serve weight.
  for (int g = 0; g < 3; ++g) {
    SnippetPair pair;
    pair.adgroup_id = g;
    pair.keyword_id = g;
    pair.r.snippet = MakeSnippet({{"brand"}, {"fast", "shipping"}});
    pair.r.serve_weight = 1.2;
    pair.r.impressions = 1000;
    pair.r.clicks = 60;
    pair.s.snippet = MakeSnippet({{"brand"}, {"slow", "shipping"}});
    pair.s.serve_weight = 0.8;
    pair.s.impressions = 1000;
    pair.s.clicks = 40;
    corpus.pairs.push_back(pair);
  }
  return corpus;
}

TEST(BuildFeatureStatsTest, TermAndRewriteStatisticsAgree) {
  BuildStatsOptions options;
  options.min_count = 1;
  const FeatureStatsDb db = BuildFeatureStats(TinyPairCorpus(), options);
  // "fast" only ever appears in the better creative.
  const FeatureStat* fast = db.Find("t:fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->positive, fast->total);
  const FeatureStat* slow = db.Find("t:slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->positive, 0);
  // The canonical rewrite statistic points from "slow"-ish to "fast"-ish.
  // With context expansion the matcher pairs the full phrases, so the key
  // is the phrase-level one.
  const SignedKey key = RewriteKey("slow shipping", "fast shipping");
  const FeatureStat* rewrite = db.Find(key.key);
  ASSERT_NE(rewrite, nullptr);
  EXPECT_EQ(rewrite->total, 3);
  // delta-sw observations all aligned with the canonical direction's sign.
  if (key.sign > 0) {
    EXPECT_EQ(rewrite->positive, 3);
  } else {
    EXPECT_EQ(rewrite->positive, 0);
  }
}

TEST(BuildFeatureStatsTest, DirectionFlipsWithServeWeights) {
  PairCorpus corpus = TinyPairCorpus();
  // Swap serve weights: now "slow" creative wins.
  for (auto& pair : corpus.pairs) std::swap(pair.r.serve_weight, pair.s.serve_weight);
  BuildStatsOptions options;
  options.min_count = 1;
  const FeatureStatsDb db = BuildFeatureStats(corpus, options);
  EXPECT_LT(db.LogOdds("t:fast"), 0.0);
  EXPECT_GT(db.LogOdds("t:slow"), 0.0);
}

TEST(BuildFeatureStatsTest, TwoPassesAreDeterministic) {
  const FeatureStatsDb a = BuildFeatureStats(TinyPairCorpus(), {});
  const FeatureStatsDb b = BuildFeatureStats(TinyPairCorpus(), {});
  EXPECT_EQ(a.size(), b.size());
  for (const auto& [key, stat] : a.stats()) {
    const FeatureStat* other = b.Find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_EQ(stat.total, other->total) << key;
    EXPECT_EQ(stat.positive, other->positive) << key;
  }
}

}  // namespace
}  // namespace microbrowse
