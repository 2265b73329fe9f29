// Copyright 2026 The Microbrowse Authors
//
// Synthetic ADCORPUS generation (the data-gate substitute; see DESIGN.md
// Section 2). Adgroups hold 2-5 creatives for one keyword; sibling
// creatives differ by one or two slot rewrites and/or phrase moves; clicks
// are sampled from the ground-truth micro-browsing model.

#ifndef MICROBROWSE_CORPUS_GENERATOR_H_
#define MICROBROWSE_CORPUS_GENERATOR_H_

#include <cstdint>

#include "common/random.h"
#include "common/result.h"
#include "corpus/ad.h"
#include "corpus/pool_relevance.h"
#include "microbrowse/model.h"

namespace microbrowse {

/// Generator configuration. Defaults produce a TOP-placement corpus sized
/// for a ~1 minute experiment run on one core. Adgroups come from the
/// three built-in verticals (PhrasePool::Travel / Shopping / Finance); the
/// generator's other constants sit beside it in generator.cc.
struct AdCorpusOptions {
  int num_adgroups = 8000;
  int min_creatives = 2;
  int max_creatives = 4;
  /// Geometric mean impressions per creative (log-normal spread).
  /// Sponsored-search corpora have enormous statistical power (the paper's
  /// ADCORPUS aggregates months of serving), so even small true CTR
  /// differences are significant — the default reflects that.
  int64_t base_impressions = 400000;
  Placement placement = Placement::kTop;
  /// Log-normal spread of a per-creative CTR multiplier modelling factors
  /// *outside* the creative text (landing page, extensions, serving-time
  /// mix). This is the irreducible noise that caps every classifier's
  /// accuracy, as the proprietary ADCORPUS does in the paper.
  double creative_noise_sigma = 0.05;
  /// Per-(keyword, token) relevance jitter: half-width of the uniform
  /// perturbation applied to logit(r) (see PoolRelevance).
  double relevance_jitter = 0.4;
  /// Sibling creatives carry one or more mutations (at most four); after
  /// each one, another is applied with probability mutation_continue_prob.
  /// More mutations per sibling means pairs differ in more places, so the
  /// net CTR difference becomes a visibility-weighted sum of conflicting
  /// deltas — the regime where position information pays off.
  double mutation_continue_prob = 0.65;
  /// Probability that a mutation is a pure phrase *move* (position change
  /// with identical text) rather than a rewrite.
  double move_mutation_weight = 0.30;
  /// Within-snippet attention cascade: after examining a phrase the user
  /// stops reading with probability absorb * p_examined * r — "once the
  /// user sees these words ... she may decide to click without examining
  /// the other words" (paper, Section I). Salient phrases early in the
  /// snippet gate examination of everything after them, which is the
  /// paper's core micro-browsing effect. 0 disables the cascade.
  double attention_absorb = 0.40;
  uint64_t seed = 42;
};

/// The ground truth behind a generated corpus — available to tests and
/// diagnostics, never to the classifier.
struct CorpusGroundTruth {
  ExaminationCurve curve;
  PoolRelevance relevance;
  double top_level_ctr = 0.0;  ///< The base CTR after placement scaling.
};

/// A generated corpus plus its ground truth.
struct GeneratedCorpus {
  AdCorpus corpus;
  CorpusGroundTruth truth;
};

/// Generates a synthetic ad corpus. Deterministic in options.seed.
Result<GeneratedCorpus> GenerateAdCorpus(const AdCorpusOptions& options);

}  // namespace microbrowse

#endif  // MICROBROWSE_CORPUS_GENERATOR_H_
