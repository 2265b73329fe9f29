// Copyright 2026 The Microbrowse Authors
//
// Property-based suites: random creative pairs are pushed through rewrite
// matching and feature extraction, checking structural invariants that
// must hold for *every* input — span validity, determinism, coverage
// disjointness, extraction antisymmetry, and stats/classifier sign
// consistency.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "microbrowse/classifier.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"

namespace microbrowse {
namespace {

/// Random 3-line snippet over a small vocabulary (repetition is likely,
/// which stresses the matcher's tie-breaking).
Snippet RandomSnippet(Rng* rng) {
  static const std::vector<std::string> kVocab = {
      "alpha", "beta",  "gamma", "delta", "echo", "fox",
      "golf",  "hotel", "india", "20%",   "off",  "free"};
  std::vector<std::vector<std::string>> lines(3);
  for (auto& line : lines) {
    const int len = static_cast<int>(rng->NextIndex(7));  // 0..6 tokens.
    for (int t = 0; t < len; ++t) {
      line.push_back(kVocab[rng->NextIndex(kVocab.size())]);
    }
  }
  return Snippet::FromTokens(std::move(lines));
}

void CheckSpan(const Snippet& snippet, const TermSpan& span) {
  ASSERT_GE(span.line, 0);
  ASSERT_LT(span.line, snippet.num_lines());
  ASSERT_GE(span.pos, 0);
  ASSERT_GE(span.len, 1);
  ASSERT_LE(span.pos + span.len, static_cast<int>(snippet.line(span.line).size()));
  const auto& tokens = snippet.line(span.line);
  EXPECT_EQ(snippet.SpanText(span),
            Join(std::vector<std::string>(tokens.begin() + span.pos,
                                          tokens.begin() + span.pos + span.len),
                 " "));
}

class MatcherPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherPropertyTest, SpansAlwaysValidAndDeterministic) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    const Snippet r = RandomSnippet(&rng);
    const Snippet s = RandomSnippet(&rng);
    const PairDiff diff = MatchRewrites(r, s, nullptr);
    for (const auto& rewrite : diff.rewrites) {
      CheckSpan(r, rewrite.r_span);
      CheckSpan(s, rewrite.s_span);
    }
    for (const auto& span : diff.r_only) CheckSpan(r, span);
    for (const auto& span : diff.s_only) CheckSpan(s, span);

    // Determinism.
    const PairDiff again = MatchRewrites(r, s, nullptr);
    ASSERT_EQ(diff.rewrites.size(), again.rewrites.size());
    for (size_t i = 0; i < diff.rewrites.size(); ++i) {
      EXPECT_EQ(diff.rewrites[i], again.rewrites[i]);
    }
    EXPECT_EQ(diff.r_only.size(), again.r_only.size());
  }
}

TEST_P(MatcherPropertyTest, TextChangingRewritesDisjointPerSide) {
  Rng rng(GetParam() ^ 0xabcdULL);
  for (int trial = 0; trial < 150; ++trial) {
    const Snippet r = RandomSnippet(&rng);
    const Snippet s = RandomSnippet(&rng);
    const PairDiff diff = MatchRewrites(r, s, nullptr);
    std::vector<std::vector<int>> r_cover(3, std::vector<int>(12, 0));
    std::vector<std::vector<int>> s_cover(3, std::vector<int>(12, 0));
    for (const auto& rewrite : diff.rewrites) {
      if (r.SpanText(rewrite.r_span) == s.SpanText(rewrite.s_span)) continue;  // Shifts may tile.
      for (int i = 0; i < rewrite.r_span.len; ++i) {
        EXPECT_EQ(r_cover[rewrite.r_span.line][rewrite.r_span.pos + i]++, 0);
      }
      for (int i = 0; i < rewrite.s_span.len; ++i) {
        EXPECT_EQ(s_cover[rewrite.s_span.line][rewrite.s_span.pos + i]++, 0);
      }
    }
  }
}

TEST_P(MatcherPropertyTest, IdenticalSnippetsAlwaysEmpty) {
  Rng rng(GetParam() ^ 0x1111ULL);
  for (int trial = 0; trial < 100; ++trial) {
    const Snippet snippet = RandomSnippet(&rng);
    EXPECT_TRUE(MatchRewrites(snippet, snippet, nullptr).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest, ::testing::Values(1, 2, 3));

class ExtractionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtractionPropertyTest, PositionlessExtractionIsAntisymmetric) {
  // For configurations without ordered position features, the net signed
  // feature multiset of (A, B) must be the exact negation of (B, A) — for
  // ANY random pair, including ones with moves and length changes.
  Rng rng(GetParam() ^ 0x7777ULL);
  const FeatureStatsDb db;
  for (const auto& config : {ClassifierConfig::M1(), ClassifierConfig::M3(),
                             ClassifierConfig::M5()}) {
    for (int trial = 0; trial < 60; ++trial) {
      const Snippet a = RandomSnippet(&rng);
      const Snippet b = RandomSnippet(&rng);
      FeatureRegistry t_registry, p_registry;
      std::vector<CoupledOccurrence> forward, backward;
      ExtractPairOccurrences(a, b, db, config, &t_registry, &p_registry, &forward);
      ExtractPairOccurrences(b, a, db, config, &t_registry, &p_registry, &backward);
      std::map<FeatureId, double> net;
      for (const auto& occ : forward) net[occ.t] += occ.sign;
      for (const auto& occ : backward) net[occ.t] += occ.sign;
      for (const auto& [id, value] : net) {
        // Same-text rewrite features (pure moves) are order-symmetric by
        // design in positionless configs; everything else must cancel.
        const std::string name(t_registry.NameOf(id));
        const bool self_rewrite =
            name.rfind("rw:", 0) == 0 && name.find("=>") != std::string::npos &&
            name.substr(3, name.find("=>") - 3) ==
                name.substr(name.find("=>") + 2);
        if (!self_rewrite) {
          EXPECT_EQ(value, 0.0) << config.name << " feature " << name;
        }
      }
    }
  }
}

TEST_P(ExtractionPropertyTest, OccurrenceSignsAreUnit) {
  Rng rng(GetParam() ^ 0x9999ULL);
  const FeatureStatsDb db;
  const ClassifierConfig config = ClassifierConfig::M6();
  for (int trial = 0; trial < 60; ++trial) {
    const Snippet a = RandomSnippet(&rng);
    const Snippet b = RandomSnippet(&rng);
    FeatureRegistry t_registry, p_registry;
    std::vector<CoupledOccurrence> occurrences;
    ExtractPairOccurrences(a, b, db, config, &t_registry, &p_registry, &occurrences);
    for (const auto& occ : occurrences) {
      EXPECT_TRUE(occ.sign == 1.0 || occ.sign == -1.0);
      ASSERT_LT(occ.t, t_registry.size());
      if (occ.p != kInvalidFeatureId) {
        ASSERT_LT(occ.p, p_registry.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractionPropertyTest, ::testing::Values(4, 5));

class StatsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsPropertyTest, StatisticsInvariantUnderPresentationSwap) {
  // Swapping the (r, s) presentation of every pair does not change which
  // creative is better, so every statistic must be invariant — except the
  // ordered position-pair keys, which map to the reversed key with
  // complemented counts (direction encodes which side holds which
  // location).
  Rng rng(GetParam());
  PairCorpus corpus;
  for (int i = 0; i < 60; ++i) {
    SnippetPair pair;
    pair.adgroup_id = i;
    pair.r.snippet = RandomSnippet(&rng);
    pair.s.snippet = RandomSnippet(&rng);
    pair.r.serve_weight = 1.0 + rng.NextDouble();
    pair.s.serve_weight = rng.NextDouble();
    corpus.pairs.push_back(pair);
  }
  PairCorpus mirrored = corpus;
  for (auto& pair : mirrored.pairs) std::swap(pair.r, pair.s);

  BuildStatsOptions options;
  options.min_count = 1;
  const FeatureStatsDb db = BuildFeatureStats(corpus, options);
  const FeatureStatsDb mirror_db = BuildFeatureStats(mirrored, options);
  for (const auto& [key_text, stat] : db.stats()) {
    const std::string key(key_text);
    // Ordered position-pair keys mirror to the REVERSED key by design
    // (direction = which side holds which location), so they are checked
    // against their mirror key; everything else flips in place.
    if (key.rfind("pp:", 0) == 0) {
      const size_t arrow = key.find("=>");
      ASSERT_NE(arrow, std::string::npos);
      const std::string mirrored_key =
          "pp:" + key.substr(arrow + 2) + "=>" + key.substr(3, arrow - 3);
      const FeatureStat* other = mirror_db.Find(mirrored_key);
      ASSERT_NE(other, nullptr) << key << " -> " << mirrored_key;
      EXPECT_EQ(stat.total, other->total) << key;
      EXPECT_EQ(stat.positive, other->total - other->positive) << key;
      continue;
    }
    const FeatureStat* other = mirror_db.Find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_EQ(stat.total, other->total) << key;
    // Self-rewrites (pure moves) carry their direction in the observation
    // sign, not the key, so their counts complement under the swap, like
    // the position pairs. Everything else is invariant.
    const size_t arrow = key.find("=>");
    const bool self_rewrite = key.rfind("rw:", 0) == 0 && arrow != std::string::npos &&
                              key.substr(3, arrow - 3) == key.substr(arrow + 2);
    if (self_rewrite) {
      EXPECT_EQ(stat.positive, other->total - other->positive) << key;
    } else {
      EXPECT_EQ(stat.positive, other->positive) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertyTest, ::testing::Values(6, 7));

}  // namespace
}  // namespace microbrowse
