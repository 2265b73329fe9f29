// Copyright 2026 The Microbrowse Authors
//
// The two-phase snippet-classification pipeline of Fig. 1: phase one
// builds the feature-statistics database from the pair corpus; phase two
// generates classifier data, trains, and evaluates with k-fold
// cross-validation (the paper uses 10-fold).

#ifndef MICROBROWSE_MICROBROWSE_PIPELINE_H_
#define MICROBROWSE_MICROBROWSE_PIPELINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "microbrowse/classifier.h"
#include "microbrowse/pair.h"
#include "microbrowse/stats_db.h"
#include "ml/metrics.h"

namespace microbrowse {

/// Pipeline configuration. The statistics database is built once over the
/// whole pair corpus, as in the paper, and every fold trains on the one
/// dataset built from it.
struct PipelineOptions {
  /// CV folds. Whole adgroups are assigned to folds, so same-adgroup pairs
  /// never straddle a train/test boundary (context n-grams are near-unique
  /// to an adgroup and would otherwise let the classifier memorise test
  /// outcomes).
  int folds = 10;
  uint64_t seed = 99;
  BuildStatsOptions stats;
  /// Worker threads for training the CV folds. Results are identical
  /// regardless of thread count: per-fold scores are collected in fold
  /// order.
  int num_threads = 1;
  /// Worker threads *inside* each run: forwarded to the statistics build
  /// (BuildStatsOptions::num_threads) and the final metrics pass.
  /// Orthogonal to `num_threads` (fold-level parallelism). Results are
  /// bitwise identical for any value — see DESIGN.md section 11.
  int train_threads = 1;
};

/// Cross-validated evaluation of one classifier configuration.
struct ModelReport {
  std::string model_name;
  BinaryMetrics metrics;  ///< Confusion counts pooled over the test folds.
  double auc = 0.5;       ///< AUC pooled over all test-fold scores.
  size_t num_t_features = 0;
  size_t num_p_features = 0;
  double train_seconds = 0.0;
};

/// Runs phase one + k-fold phase two for `config` on `corpus`. The first
/// failing fold's status (e.g. an armed "pipeline.fold" failpoint) is
/// returned; no report is produced.
Result<ModelReport> RunPairClassificationCv(const PairCorpus& corpus,
                                            const ClassifierConfig& config,
                                            const PipelineOptions& options);

/// Learned position weights, the artefact behind Figure 3: entry
/// [line][bucket] is the trained P weight of term position (line, bucket);
/// NaN where the position never occurred.
struct PositionWeightReport {
  std::vector<std::vector<double>> term_position_weights;
};

/// Trains `config` (which must have use_position = true) on the full
/// corpus and reports the learned term-position factor.
Result<PositionWeightReport> LearnPositionWeights(const PairCorpus& corpus,
                                                  const ClassifierConfig& config,
                                                  const PipelineOptions& options);

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_PIPELINE_H_
