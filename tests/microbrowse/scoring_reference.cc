// Copyright 2026 The Microbrowse Authors

#include "scoring_reference.h"

#include <vector>

namespace microbrowse {

namespace {

/// Scores pre-extracted occurrences under `model`, falling back to the
/// registries' warm-start weights for features interned after training
/// (ids beyond the trained weight vectors).
double ReferenceScore(const SnippetClassifierModel& model, const FeatureRegistry& t_registry,
                      const FeatureRegistry& p_registry,
                      const std::vector<CoupledOccurrence>& occurrences) {
  double score = model.bias;
  for (const CoupledOccurrence& occ : occurrences) {
    const double t = occ.t < model.t_weights.size() ? model.t_weights[occ.t]
                                                    : t_registry.InitialWeightOf(occ.t);
    double p = 1.0;
    if (occ.p != kInvalidFeatureId) {
      p = occ.p < model.p_weights.size() ? model.p_weights[occ.p]
                                         : p_registry.InitialWeightOf(occ.p);
    }
    score += occ.sign * p * t;
  }
  return score;
}

}  // namespace

double ReferencePredictPairMargin(const Snippet& first, const Snippet& second,
                                  const FeatureStatsDb& db, const ClassifierConfig& config,
                                  const SnippetClassifierModel& model,
                                  const FeatureRegistry& t_registry,
                                  const FeatureRegistry& p_registry) {
  FeatureRegistry t_copy = t_registry;
  FeatureRegistry p_copy = p_registry;
  std::vector<CoupledOccurrence> occurrences;
  ExtractPairOccurrences(first, second, db, config, &t_copy, &p_copy, &occurrences);
  return ReferenceScore(model, t_copy, p_copy, occurrences);
}

}  // namespace microbrowse
