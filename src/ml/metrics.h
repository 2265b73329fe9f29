// Copyright 2026 The Microbrowse Authors
//
// Binary-classification metrics. The paper's Tables 2 and 4 report recall,
// precision, F-measure and accuracy of the snippet classifier.

#ifndef MICROBROWSE_ML_METRICS_H_
#define MICROBROWSE_ML_METRICS_H_

#include <cstdint>
#include <vector>

namespace microbrowse {

/// One scored example: model score (any monotone of probability) and the
/// true binary label.
struct ScoredLabel {
  double score = 0.0;
  bool label = false;
};

/// Confusion-matrix-derived metrics at a fixed threshold.
struct BinaryMetrics {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t true_negatives = 0;
  int64_t false_negatives = 0;

  int64_t total() const {
    return true_positives + false_positives + true_negatives + false_negatives;
  }
  double accuracy() const;
  double precision() const;  ///< TP / (TP + FP); 0 when undefined.
  double recall() const;     ///< TP / (TP + FN); 0 when undefined.
  double f1() const;         ///< Harmonic mean of precision and recall.
};

/// Computes the confusion matrix of `scored` at `threshold` on the score.
/// With `num_threads` > 1, fixed chunks are counted in parallel and
/// merged; the counts are integers, so the result is identical for any
/// thread count.
BinaryMetrics ComputeBinaryMetrics(const std::vector<ScoredLabel>& scored,
                                   double threshold = 0.0, int num_threads = 1);

/// Merges two confusion matrices (e.g., across CV folds).
BinaryMetrics MergeMetrics(const BinaryMetrics& a, const BinaryMetrics& b);

/// Area under the ROC curve via the rank-sum estimator; ties get half
/// credit. Returns 0.5 when either class is empty. With `num_threads` > 1
/// the sort runs as a parallel chunked merge sort over a fixed chunk grid;
/// the rank-sum walk groups equal scores, so the value is bitwise
/// identical for any thread count.
double ComputeAuc(const std::vector<ScoredLabel>& scored, int num_threads = 1);

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_METRICS_H_
