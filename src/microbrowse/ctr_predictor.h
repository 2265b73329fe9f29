// Copyright 2026 The Microbrowse Authors
//
// Pointwise creative scoring on top of the pairwise machinery. The paper's
// classifier is pairwise (which of two creatives wins); many production
// uses need a *pointwise* quality score — rank N drafts, screen a new
// creative before serving. This header derives one from the same learned
// artefacts: each term contributes its learned (or statistics-database)
// relevance weight scaled by the learned visibility of its position.
//
// The score is a relative quality in log-odds units: differences of two
// creatives' scores approximate the pairwise classifier's margin (exact
// when the pairwise model is position-decomposable).

#ifndef MICROBROWSE_MICROBROWSE_CTR_PREDICTOR_H_
#define MICROBROWSE_MICROBROWSE_CTR_PREDICTOR_H_

#include <array>
#include <vector>

#include "common/result.h"
#include "microbrowse/classifier.h"
#include "microbrowse/feature_keys.h"
#include "microbrowse/model.h"

namespace microbrowse {

/// Pointwise scorer configuration.
struct CtrPredictorOptions {
  /// Visibility for positions whose weight was never learned: fall back to
  /// this examination curve.
  ExaminationCurve fallback_curve = ExaminationCurve::TopPlacement();
};

/// Scores creatives pointwise from a trained coupled model (or, when the
/// model is empty, straight from the statistics database warm starts).
class CtrPredictor {
 public:
  /// `model` / registries are typically the output of TrainSnippetClassifier
  /// with a coupled-position configuration. Nothing is copied: the
  /// predictor reads `model`, both registries and `db` in place, so all of
  /// them must outlive it (a serving bundle owns them next to its
  /// predictor). The visibility of every bucketed position is looked up
  /// here, once, so the position weights and `p_registry` must not change
  /// afterwards.
  CtrPredictor(const SnippetClassifierModel& model, const FeatureRegistry& t_registry,
               const FeatureRegistry& p_registry, const FeatureStatsDb* db = nullptr,
               CtrPredictorOptions options = {});

  /// Relative quality score of a creative (higher = higher predicted CTR).
  double Score(const Snippet& snippet) const;

  /// Ranks the creatives by descending predicted CTR; returns indices into
  /// `snippets`.
  std::vector<size_t> Rank(const std::vector<Snippet>& snippets) const;

 private:
  /// The score term of one n-gram, spelling its keys into `key`.
  double SpanScore(const Snippet& snippet, const TermSpan& span, FeatureKeyBuffer* key) const;

  const SnippetClassifierModel* model_;  ///< Not owned.
  const FeatureRegistry* t_registry_;    ///< Not owned.
  const FeatureStatsDb* db_;             ///< Optional; not owned. May be null.
  CtrPredictorOptions options_;
  /// Visibility of each position at its TermPositionIndex: the learned
  /// position weight when the P registry has one inside the trained
  /// vector, else the fallback curve.
  std::array<double, kNumPositions> visibility_{};
};

/// Fits the parametric examination curve p(line, pos) = base[line] *
/// decay^pos to a learned position-weight grid (entries may be NaN for
/// unobserved positions) by least squares in log space. Returns
/// InvalidArgument when fewer than three finite positive weights exist.
/// The fitted curve reports the *shape* of the learned weights; its
/// absolute scale is normalised so the largest fitted value is `peak`.
Result<ExaminationCurve> FitExaminationCurve(
    const std::vector<std::vector<double>>& position_weights, double peak = 0.95);

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_CTR_PREDICTOR_H_
