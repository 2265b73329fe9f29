// Copyright 2026 The Microbrowse Authors
//
// Diagnostic harness retained from tuning the reproduction: stats-database
// spot checks, pair-composition census, per-subset accuracies (move-only /
// multi-rewrite), an oracle-position upper bound, and learned position
// weights. Useful when adapting the generator or classifier; not part of
// the documented reproduction suite.
//
// Environment: MB_ADGROUPS (default 1200), MB_CNOISE_PCT, MB_IMPR,
// MB_FEATDUMP.

#include <cmath>
#include <cstdio>
#include <map>

#include "eval/experiments.h"
#include "microbrowse/feature_keys.h"

using namespace microbrowse;

int main() {
  ExperimentOptions options;
  options.num_adgroups = static_cast<int>(EnvInt("MB_ADGROUPS", 1200));
  options.folds = 5;
  options.corpus.creative_noise_sigma =
      static_cast<double>(EnvInt("MB_CNOISE_PCT", 10)) / 100.0;
  options.corpus.base_impressions = EnvInt("MB_IMPR", 400000);
  options.Normalize();
  auto pairs_r = MakePairCorpus(options, Placement::kTop);
  if (!pairs_r.ok()) return 1;
  const PairCorpus& pairs = *pairs_r;
  std::printf("pairs: %zu\n", pairs.pairs.size());

  // --- Stats DB sanity.
  const FeatureStatsDb db = BuildFeatureStats(pairs, options.pipeline.stats);
  std::printf("stats db size: %zu\n", db.size());
  for (const char* key :
       {"rw:browse=>save big on", "rw:find cheap=>get discounts on", "t:20% off", "t:browse",
        "t:free cancellation", "p:0:0", "p:1:0", "p:2:0", "p:2:4"}) {
    const FeatureStat* s = db.Find(key);
    if (s) {
      std::printf("  %-35s count=%6lld p=%.3f logodds=%+.3f\n", key,
                  static_cast<long long>(s->total), s->SmoothedP(), s->LogOdds());
    } else {
      std::printf("  %-35s (absent)\n", key);
    }
  }

  // --- Pair composition: how many pairs are pure moves (no text diff)?
  int move_only = 0, with_rewrites = 0, multi = 0;
  for (const auto& pair : pairs.pairs) {
    const PairDiff diff = MatchRewrites(pair.r.snippet, pair.s.snippet, &db);
    bool any_text_change = !diff.r_only.empty() || !diff.s_only.empty();
    int text_rewrites = 0;
    for (const auto& rw : diff.rewrites) {
      if (rw.r_span.text != rw.s_span.text) {
        any_text_change = true;
        ++text_rewrites;
      }
    }
    if (!any_text_change) ++move_only;
    if (text_rewrites > 0) ++with_rewrites;
    if (text_rewrites > 1) ++multi;
  }
  std::printf("move-only pairs: %d / %zu; with text rewrites: %d; multi-rewrite: %d\n",
              move_only, pairs.pairs.size(), with_rewrites, multi);

  // --- Feature-set comparison M2 vs M4d on a few pairs.
  if (EnvInt("MB_FEATDUMP", 0) > 0) {
    ClassifierConfig c2 = ClassifierConfig::M2();
    ClassifierConfig c4 = ClassifierConfig::M4();
    c4.drop_matched_rewrites = true;
    for (size_t pi = 0; pi < 3 && pi < pairs.pairs.size(); ++pi) {
      const auto& pair = pairs.pairs[pi];
      std::printf("--- pair %zu\n  R: %s\n  S: %s\n", pi,
                  pair.r.snippet.ToString().c_str(), pair.s.snippet.ToString().c_str());
      for (const auto* cfg : {&c2, &c4}) {
        FeatureRegistry tr, pr;
        std::vector<CoupledOccurrence> occs;
        ExtractPairOccurrences(pair.r.snippet, pair.s.snippet, db, *cfg, &tr, &pr, &occs);
        std::map<std::pair<std::string, std::string>, double> agg;
        for (const auto& o : occs) {
          agg[{std::string(tr.NameOf(o.t)),
               o.p == kInvalidFeatureId ? std::string() : std::string(pr.NameOf(o.p))}] +=
              o.sign;
        }
        std::printf("  [%s] %zu occurrences, net features:\n", cfg->name.c_str(), occs.size());
        for (const auto& [k, v] : agg) {
          if (v != 0.0) std::printf("    %+.0f  %s | %s\n", v, k.first.c_str(), k.second.c_str());
        }
      }
    }
  }

  // --- Per-subset accuracy for M1 / M2 / M4 / M6, plus an oracle variant
  // of M2 whose position factor is frozen at the ground-truth examination
  // curve (upper bound for what learning P could buy).
  ClassifierConfig m2_oracle = ClassifierConfig::M2();
  m2_oracle.name = "M2*";  // oracle positions
  m2_oracle.position_lr.epochs = 0;
  m2_oracle.coupled_iterations = 1;
  ClassifierConfig m2_it1 = ClassifierConfig::M2();
  m2_it1.name = "M2i1";
  m2_it1.coupled_iterations = 1;
  ClassifierConfig m2_l2 = ClassifierConfig::M2();
  m2_l2.name = "M2l2";
  m2_l2.position_lr.l2 = 0.2;
  ClassifierConfig m2_long = ClassifierConfig::M2();
  m2_long.name = "M2lg";
  m2_long.position_lr.epochs = 25;
  m2_long.coupled_iterations = 6;
  ClassifierConfig m4_decomposed = ClassifierConfig::M4();
  m4_decomposed.name = "M4d";  // matched rewrites decomposed into terms
  m4_decomposed.drop_matched_rewrites = true;
  ClassifierConfig m4_posonly = ClassifierConfig::M4();
  m4_posonly.name = "M4p";  // locality-only matching
  m4_posonly.matching = MatchingStrategy::kPositionOnly;
  ClassifierConfig m1_unigram = ClassifierConfig::M1();
  m1_unigram.name = "M1u";  // unigrams only: zero adjacency information
  m1_unigram.max_ngram = 1;
  ClassifierConfig m2_unigram = ClassifierConfig::M2();
  m2_unigram.name = "M2u";
  m2_unigram.max_ngram = 1;
  ClassifierConfig m2_diff = ClassifierConfig::M2();
  m2_diff.name = "M2df";  // term features restricted to diff regions
  m2_diff.diff_terms_only = true;
  std::vector<ClassifierConfig> configs = {ClassifierConfig::M1(), m1_unigram,
                                           ClassifierConfig::M2(), m2_diff, m2_unigram,
                                           m2_oracle, ClassifierConfig::M4(), m4_decomposed,
                                           m4_posonly, ClassifierConfig::M6()};
  for (const ClassifierConfig& config : configs) {
    CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, options.pipeline.seed);
    if (config.name == "M2*") {
      const ExaminationCurve curve = ExaminationCurve::TopPlacement();
      for (int line = 0; line <= 2; ++line) {
        for (int b = 0; b <= 7; ++b) {
          const FeatureId id = dataset.p_registry.Find(TermPositionKey(PositionKey{line, b}));
          if (id != kInvalidFeatureId) {
            dataset.p_registry.SetInitialWeight(id, 4.0 * curve.Probability(line, b));
          }
        }
      }
    }
    // Split 80/20 by adgroup so same-adgroup pairs never straddle the
    // boundary (mirrors the pipeline's grouped folds).
    std::vector<size_t> train, test;
    for (size_t i = 0; i < dataset.examples.size(); ++i) {
      (pairs.pairs[i].adgroup_id % 5 == 4 ? test : train).push_back(i);
    }
    const CoupledCsr csr = FlattenCoupledDataset(dataset);
    auto model = TrainSnippetClassifier(csr, config, train);
    if (!model.ok()) return 1;
    int correct_all = 0, n_all = 0, correct_move = 0, n_move = 0;
    int correct_conflict = 0, n_conflict = 0;
    for (size_t idx : test) {
      const auto& pair = pairs.pairs[idx];
      const PairDiff diff = MatchRewrites(pair.r.snippet, pair.s.snippet, &db);
      bool any_text_change = !diff.r_only.empty() || !diff.s_only.empty();
      int text_rewrites = 0;
      for (const auto& rw : diff.rewrites) {
        if (rw.r_span.text != rw.s_span.text) {
          any_text_change = true;
          ++text_rewrites;
        }
      }
      const bool predicted = model->ScoreRow(csr, idx) >= 0.0;
      const bool actual = csr.labels[idx] > 0.5;
      ++n_all;
      correct_all += predicted == actual;
      if (!any_text_change) {
        ++n_move;
        correct_move += predicted == actual;
      }
      if (text_rewrites >= 2) {
        ++n_conflict;
        correct_conflict += predicted == actual;
      }
    }
    std::printf("%s: acc=%.3f  move-only acc=%.3f (n=%d)  multi-rewrite acc=%.3f (n=%d)\n",
                config.name.c_str(), double(correct_all) / n_all,
                n_move ? double(correct_move) / n_move : 0.0, n_move,
                n_conflict ? double(correct_conflict) / n_conflict : 0.0, n_conflict);
    if (config.use_position) {
      std::printf("   P weights (term positions line:bucket=w): ");
      for (int line = 0; line <= 2; ++line) {
        for (int b = 0; b <= 7; ++b) {
          const FeatureId id = dataset.p_registry.Find(TermPositionKey(PositionKey{line, b}));
          if (id != kInvalidFeatureId) {
            std::printf("%d:%d=%.2f ", line, b, model->p_weights[id]);
          }
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
