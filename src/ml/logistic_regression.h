// Copyright 2026 The Microbrowse Authors
//
// L1-regularised logistic regression — the paper's snippet classifier is
// "a logistic regression model with L1 regularization" (Section V-D) whose
// weights are warm-started from the feature-statistics database. The
// trainer is AdaGrad SGD with truncated-gradient L1: per-feature adaptive
// steps, each followed by a shrink toward zero. It reads CSR rows
// (ml/csr.h), one CsrDataset per classifier phase.

#ifndef MICROBROWSE_ML_LOGISTIC_REGRESSION_H_
#define MICROBROWSE_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/result.h"
#include "ml/csr.h"

namespace microbrowse {

/// Logistic-regression hyper-parameters. Every epoch visits the rows in a
/// fresh shuffle of a fixed seed, and training stops early once an
/// epoch's log-loss improves by less than 1e-6.
struct LrOptions {
  double l1 = 1e-4;              ///< L1 penalty strength.
  double l2 = 1e-6;              ///< Small ridge term for conditioning.
  double learning_rate = 0.3;    ///< AdaGrad base step.
  int epochs = 15;               ///< Maximum passes over the data.
  bool fit_bias = true;
};

/// A trained (or warm-started) linear model over sparse features.
struct LogisticModel {
  std::vector<double> weights;
  double bias = 0.0;
};

/// Trains a logistic regression on `data`. When `initial_weights` is
/// non-null it supplies the warm start (its length must equal
/// data.num_features); otherwise training starts from zero. The bias
/// always starts at zero.
Result<LogisticModel> TrainLogisticRegression(const CsrDataset& data, const LrOptions& options,
                                              const std::vector<double>* initial_weights = nullptr);

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_LOGISTIC_REGRESSION_H_
