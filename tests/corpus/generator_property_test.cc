// Copyright 2026 The Microbrowse Authors
//
// Properties of the corpus generator that the reproduction's validity
// rests on: line-swap moves are invisible to bag-of-terms features, the
// attention cascade changes CTR through ordering alone, and the rewrite
// graph concentrates mutation traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/classifier.h"
#include "text/ngram.h"

namespace microbrowse {
namespace {

/// Sorted multiset of all n-gram texts of a snippet.
std::multiset<std::string> NGramMultiset(const Snippet& snippet) {
  std::multiset<std::string> out;
  for (const TermSpan& span : ExtractNGrams(snippet, 3)) out.insert(snippet.SpanText(span));
  return out;
}

TEST(GeneratorPropertyTest, LineSwapSiblingsAreNGramInvisible) {
  AdCorpusOptions options;
  options.num_adgroups = 800;
  options.seed = 31;
  auto generated = GenerateAdCorpus(options);
  ASSERT_TRUE(generated.ok());

  // Find sibling pairs whose snippets differ as text lines but whose
  // n-gram multisets are identical: these are the pure line-swap moves.
  int invisible_pairs = 0;
  const FeatureStatsDb db;
  const ClassifierConfig m1 = ClassifierConfig::M1();
  for (const AdGroup& group : generated->corpus.adgroups) {
    for (size_t i = 0; i + 1 < group.creatives.size(); ++i) {
      for (size_t j = i + 1; j < group.creatives.size(); ++j) {
        const Snippet& a = group.creatives[i].snippet;
        const Snippet& b = group.creatives[j].snippet;
        if (a == b) continue;
        if (NGramMultiset(a) != NGramMultiset(b)) continue;
        ++invisible_pairs;
        // M1's net feature vector over such a pair must be exactly empty.
        FeatureRegistry t_registry, p_registry;
        std::vector<CoupledOccurrence> occurrences;
        ExtractPairOccurrences(a, b, db, m1, &t_registry, &p_registry, &occurrences);
        std::map<FeatureId, double> net;
        for (const auto& occ : occurrences) net[occ.t] += occ.sign;
        for (const auto& [id, value] : net) {
          EXPECT_EQ(value, 0.0) << t_registry.NameOf(id);
        }
        // But their TRUE CTRs differ (the swap moved text between
        // visibility tiers) — this is the signal only position-aware
        // models can reach.
        EXPECT_NE(group.creatives[i].true_ctr, group.creatives[j].true_ctr);
      }
    }
  }
  // Such pairs must actually occur at a meaningful rate.
  EXPECT_GT(invisible_pairs, 20);
}

TEST(GeneratorPropertyTest, AttentionCascadeChangesCtrs) {
  AdCorpusOptions with_cascade;
  with_cascade.num_adgroups = 150;
  with_cascade.seed = 5;
  AdCorpusOptions without_cascade = with_cascade;
  without_cascade.attention_absorb = 0.0;

  auto a = GenerateAdCorpus(with_cascade);
  auto b = GenerateAdCorpus(without_cascade);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same seeds, same creatives... the cascade only affects CTR levels.
  ASSERT_EQ(a->corpus.adgroups.size(), b->corpus.adgroups.size());
  int higher_without = 0, total = 0;
  for (size_t g = 0; g < a->corpus.adgroups.size(); ++g) {
    const auto& ga = a->corpus.adgroups[g];
    const auto& gb = b->corpus.adgroups[g];
    if (ga.creatives.size() != gb.creatives.size()) continue;
    for (size_t c = 0; c < ga.creatives.size(); ++c) {
      if (!(ga.creatives[c].snippet == gb.creatives[c].snippet)) continue;
      ++total;
      // Stopping early means fewer chances to be put off: the cascade can
      // only raise Eq. 3's product, never lower it.
      EXPECT_GE(ga.creatives[c].true_ctr, gb.creatives[c].true_ctr * 0.99);
      higher_without += ga.creatives[c].true_ctr > gb.creatives[c].true_ctr ? 1 : 0;
    }
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(higher_without, total / 2);
}

TEST(GeneratorPropertyTest, RewriteTrafficIsConcentrated) {
  // With the Zipf rewrite graph, the distribution of (slot phrase -> slot
  // phrase) transitions across the corpus is heavy-headed: the top decile
  // of observed transitions carries most of the mass.
  AdCorpusOptions options;
  options.num_adgroups = 1200;
  options.seed = 13;
  auto generated = GenerateAdCorpus(options);
  ASSERT_TRUE(generated.ok());

  // Count distinct (line-2 action phrase) transitions between siblings as
  // a proxy: collect (first line2 token of a, first line2 token of b).
  std::map<std::pair<std::string, std::string>, int> transitions;
  for (const AdGroup& group : generated->corpus.adgroups) {
    for (size_t i = 0; i + 1 < group.creatives.size(); ++i) {
      const auto& a = group.creatives[i].snippet;
      const auto& b = group.creatives[i + 1].snippet;
      if (a.line(1).empty() || b.line(1).empty()) continue;
      if (a.line(1)[0] == b.line(1)[0]) continue;
      auto key = std::minmax(a.line(1)[0], b.line(1)[0]);
      ++transitions[{key.first, key.second}];
    }
  }
  ASSERT_GT(transitions.size(), 20u);
  std::vector<int> counts;
  int total = 0;
  for (const auto& [key, count] : transitions) {
    counts.push_back(count);
    total += count;
  }
  std::sort(counts.rbegin(), counts.rend());
  int head = 0;
  for (size_t i = 0; i < counts.size() / 4; ++i) head += counts[i];
  // The top quartile of transition types carries over half the traffic.
  EXPECT_GT(static_cast<double>(head) / total, 0.5);
}

TEST(GeneratorPropertyTest, ImpressionPowerMakesPairsSignificant) {
  // At the default impression scale nearly every within-adgroup CTR
  // difference is detectable; at 1% of the scale most are not.
  AdCorpusOptions strong;
  strong.num_adgroups = 200;
  strong.seed = 3;
  AdCorpusOptions weak = strong;
  weak.base_impressions = strong.base_impressions / 100;

  auto strong_corpus = GenerateAdCorpus(strong);
  auto weak_corpus = GenerateAdCorpus(weak);
  ASSERT_TRUE(strong_corpus.ok());
  ASSERT_TRUE(weak_corpus.ok());
  const size_t strong_pairs =
      ExtractSignificantPairs(strong_corpus->corpus, {}).pairs.size();
  PairExtractionOptions weak_options;
  weak_options.min_impressions = 100;
  const size_t weak_pairs =
      ExtractSignificantPairs(weak_corpus->corpus, weak_options).pairs.size();
  EXPECT_GT(strong_pairs, 2 * weak_pairs);
}

}  // namespace
}  // namespace microbrowse
