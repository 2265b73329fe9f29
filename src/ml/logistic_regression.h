// Copyright 2026 The Microbrowse Authors
//
// L1-regularised logistic regression — the paper's snippet classifier is
// "a logistic regression model with L1 regularization" (Section V-D) whose
// weights are warm-started from the feature-statistics database. The
// trainer is AdaGrad SGD with truncated-gradient L1: per-feature adaptive
// steps, each followed by a shrink toward zero.

#ifndef MICROBROWSE_ML_LOGISTIC_REGRESSION_H_
#define MICROBROWSE_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "ml/csr.h"
#include "ml/dataset.h"
#include "ml/sparse_vector.h"

namespace microbrowse {

/// Logistic-regression hyper-parameters.
struct LrOptions {
  double l1 = 1e-4;              ///< L1 penalty strength.
  double l2 = 1e-6;              ///< Small ridge term for conditioning.
  double learning_rate = 0.3;    ///< AdaGrad base step.
  int epochs = 15;               ///< Passes over the data.
  bool shuffle_each_epoch = true;
  bool fit_bias = true;
  uint64_t seed = 7;             ///< Shuffle seed.
  /// Stop early when the training log-loss improves by less than this
  /// between epochs (<= 0 disables).
  double tolerance = 1e-6;
};

/// A trained (or warm-started) linear model over sparse features.
class LogisticModel {
 public:
  LogisticModel() = default;

  /// Creates a model with `num_features` zero weights.
  explicit LogisticModel(size_t num_features) : weights_(num_features, 0.0) {}

  /// Creates a model from explicit weights and bias.
  LogisticModel(std::vector<double> weights, double bias)
      : weights_(std::move(weights)), bias_(bias) {}

  /// Raw linear score w.x + b.
  double Score(const SparseVector& features) const { return features.Dot(weights_) + bias_; }

  /// Predicted probability of the positive class.
  double PredictProbability(const SparseVector& features) const;

  /// Hard 0/1 prediction at threshold 0.5.
  bool PredictLabel(const SparseVector& features) const { return Score(features) >= 0.0; }

  const std::vector<double>& weights() const { return weights_; }
  std::vector<double>& mutable_weights() { return weights_; }
  double bias() const { return bias_; }
  void set_bias(double bias) { bias_ = bias; }

  /// Number of exactly-zero weights (L1 sparsity diagnostic).
  size_t num_zero_weights() const;

  /// Mean log-loss of the model on `data`.
  double MeanLogLoss(const Dataset& data) const;

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Trains a logistic regression on `data`. When `initial_weights` is
/// non-null it supplies the warm start (its length must equal
/// data.num_features); otherwise training starts from zero. Flattens the
/// dataset to CSR once and delegates to the CSR overload.
Result<LogisticModel> TrainLogisticRegression(const Dataset& data, const LrOptions& options,
                                              const std::vector<double>* initial_weights = nullptr);

/// CSR-layout entry point for callers that already hold (or reuse) a
/// flattened dataset — the training hot path proper. The solver streams
/// the packed arrays directly.
Result<LogisticModel> TrainLogisticRegression(const CsrDataset& data, const LrOptions& options,
                                              const std::vector<double>* initial_weights = nullptr);

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_LOGISTIC_REGRESSION_H_
