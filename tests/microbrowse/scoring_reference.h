// Copyright 2026 The Microbrowse Authors
//
// Test-only reference for PredictPairMargin (microbrowse/classifier.h): the
// interning scorer the read-only one replaced, kept verbatim so the
// production scorer can be differentially tested against it.

#ifndef MICROBROWSE_TESTS_MICROBROWSE_SCORING_REFERENCE_H_
#define MICROBROWSE_TESTS_MICROBROWSE_SCORING_REFERENCE_H_

#include "microbrowse/classifier.h"

namespace microbrowse {

/// Same contract as PredictPairMargin, computed the old way: copy both
/// registries, intern the pair's occurrences into the copies with
/// ExtractPairOccurrences, then fold sign * P * T over them — the trained
/// weight for ids inside the trained vectors, the copy's warm start past
/// them.
double ReferencePredictPairMargin(const Snippet& first, const Snippet& second,
                                  const FeatureStatsDb& db, const ClassifierConfig& config,
                                  const SnippetClassifierModel& model,
                                  const FeatureRegistry& t_registry,
                                  const FeatureRegistry& p_registry);

}  // namespace microbrowse

#endif  // MICROBROWSE_TESTS_MICROBROWSE_SCORING_REFERENCE_H_
