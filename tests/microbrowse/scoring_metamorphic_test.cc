// Copyright 2026 The Microbrowse Authors
//
// Metamorphic properties of the pair scorer (PredictPairMargin), checked
// on an M1 model trained on a seeded corpus:
//  * swapping a snippet's lines leaves its n-gram multiset unchanged, so
//    under M1 (position-free n-grams) margin(a, swap(a)) is the bias;
//  * M1's features of (b, a) are those of (a, b) with every sign flipped,
//    so margin(a, b) + margin(b, a) is twice the bias.
// The scorer adds occurrences one by one in extraction order (+w for the
// first snippet's n-grams, then -w for the second's), so the cancelling
// terms meet at different partial sums and both identities hold only
// within rounding (DESIGN.md section 5).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"

namespace microbrowse {
namespace {

AdCorpus Generate(int adgroups, uint64_t seed) {
  AdCorpusOptions options;
  options.num_adgroups = adgroups;
  options.seed = seed;
  auto generated = GenerateAdCorpus(options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return generated.ok() ? std::move(generated->corpus) : AdCorpus{};
}

/// An M1 model, its registries and statistics, trained on a seeded corpus;
/// plus that corpus and a held-out one (whose n-grams the registries partly
/// lack, so the statistics warm starts are scored too).
struct Trained {
  AdCorpus corpus;
  AdCorpus held_out;
  ClassifierConfig config = ClassifierConfig::M1();
  FeatureStatsDb db;
  CoupledDataset dataset;
  SnippetClassifierModel model;
};

const Trained& SharedModel() {
  static const Trained* trained = [] {
    auto* out = new Trained;
    out->corpus = Generate(60, 71);
    out->held_out = Generate(30, 73);
    const PairCorpus pairs = ExtractSignificantPairs(out->corpus, {});
    out->db = BuildFeatureStats(pairs, {});
    out->dataset = BuildClassifierDataset(pairs, out->db, out->config, 5);
    auto model = TrainSnippetClassifier(out->dataset, out->config);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (model.ok()) out->model = std::move(*model);
    return out;
  }();
  return *trained;
}

double Margin(const Trained& t, const Snippet& first, const Snippet& second) {
  return PredictPairMargin(first, second, t.db, t.config, t.model, t.dataset.t_registry,
                           t.dataset.p_registry);
}

/// Sum of |w| over the pair's weights, the scale of the rounding error of
/// an ordered sum over them: every term of M1's margin is ±w.
double WeightScale(const Trained& t, const Snippet& first, const Snippet& second) {
  FeatureRegistry t_copy = t.dataset.t_registry;
  FeatureRegistry p_copy = t.dataset.p_registry;
  std::vector<CoupledOccurrence> occurrences;
  ExtractPairOccurrences(first, second, t.db, t.config, &t_copy, &p_copy, &occurrences);
  double scale = std::fabs(t.model.bias);
  for (const CoupledOccurrence& occ : occurrences) {
    scale += std::fabs(occ.t < t.model.t_weights.size() ? t.model.t_weights[occ.t]
                                                        : t_copy.InitialWeightOf(occ.t));
  }
  return scale;
}

/// Error bound of an ordered double sum of n < 1024 terms whose magnitudes
/// add up to `scale`: (n - 1) * 2^-53 * scale.
double RoundingBound(double scale) { return 1024.0 * 0x1p-53 * scale; }

// Largest gap seen: |margin(a, swap(a)) - bias| = 8.8e-15 over 532
// snippets (lines 1 and 2 swapped, and all lines reversed), about 1/100 of
// the bound.
TEST(ScoringMetamorphicTest, LineSwapLeavesM1MarginAtTheBias) {
  const Trained& t = SharedModel();
  ASSERT_GT(t.dataset.t_registry.size(), 0u);
  size_t checked = 0;
  for (const AdCorpus* corpus : {&t.corpus, &t.held_out}) {
    for (const AdGroup& group : corpus->adgroups) {
      for (const Creative& creative : group.creatives) {
        const Snippet& a = creative.snippet;
        if (a.num_lines() < 2) continue;
        std::vector<std::vector<std::string>> swapped = a.lines();
        std::swap(swapped[0], swapped[1]);
        std::vector<std::vector<std::string>> reversed = a.lines();
        std::reverse(reversed.begin(), reversed.end());
        for (auto* lines : {&swapped, &reversed}) {
          const Snippet b = Snippet::FromTokens(*lines);
          const double gap = std::fabs(Margin(t, a, b) - t.model.bias);
          EXPECT_LE(gap, RoundingBound(WeightScale(t, a, b)))
              << a.ToString() << " vs " << b.ToString();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 200u);
}

// Largest gap seen: |margin(a, b) + margin(b, a) - 2 * bias| = 1.7e-14 over
// 288 sibling pairs, of which 4 sum exactly.
TEST(ScoringMetamorphicTest, ReversedPairMarginsSumToTwiceTheBias) {
  const Trained& t = SharedModel();
  size_t checked = 0;
  for (const AdCorpus* corpus : {&t.corpus, &t.held_out}) {
    for (const AdGroup& group : corpus->adgroups) {
      for (size_t i = 0; i < group.creatives.size(); ++i) {
        for (size_t j = i + 1; j < group.creatives.size(); ++j) {
          const Snippet& a = group.creatives[i].snippet;
          const Snippet& b = group.creatives[j].snippet;
          const double sum = Margin(t, a, b) + Margin(t, b, a);
          const double gap = std::fabs(sum - 2.0 * t.model.bias);
          EXPECT_LE(gap, 2.0 * RoundingBound(WeightScale(t, a, b)))
              << a.ToString() << " vs " << b.ToString();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 200u);
}

}  // namespace
}  // namespace microbrowse
