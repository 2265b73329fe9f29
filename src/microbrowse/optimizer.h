// Copyright 2026 The Microbrowse Authors
//
// Compatibility header, kept only for the frozen benchmark harness
// (perfbench/src/layers.cc), which includes it and calls the overload
// below. New code includes microbrowse/classifier.h and calls the
// read-only PredictPairMargin declared there.

#ifndef MICROBROWSE_MICROBROWSE_OPTIMIZER_H_
#define MICROBROWSE_MICROBROWSE_OPTIMIZER_H_

#include "microbrowse/classifier.h"

namespace microbrowse {

/// Forwards to the read-only PredictPairMargin; interns nothing into the
/// registries it is handed.
inline double PredictPairMargin(const Snippet& first, const Snippet& second,
                                const FeatureStatsDb& db, const ClassifierConfig& config,
                                const SnippetClassifierModel& model,
                                FeatureRegistry* t_registry, FeatureRegistry* p_registry) {
  return PredictPairMargin(first, second, db, config, model, *t_registry, *p_registry);
}

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_OPTIMIZER_H_
