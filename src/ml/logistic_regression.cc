// Copyright 2026 The Microbrowse Authors

#include "ml/logistic_regression.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace microbrowse {

double LogisticModel::PredictProbability(const SparseVector& features) const {
  return Sigmoid(Score(features));
}

size_t LogisticModel::num_zero_weights() const {
  size_t n = 0;
  for (double w : weights_) n += w == 0.0 ? 1 : 0;
  return n;
}

double LogisticModel::MeanLogLoss(const Dataset& data) const {
  if (data.empty()) return 0.0;
  double total = 0.0;
  double weight_sum = 0.0;
  for (const auto& example : data.examples) {
    const double predicted = Sigmoid(Score(example.features) + example.offset);
    total += example.weight * LogLoss(example.label, predicted);
    weight_sum += example.weight;
  }
  return weight_sum > 0.0 ? total / weight_sum : 0.0;
}

namespace {

/// Adds `n` completed epochs to the process-wide training counter. One
/// aggregate add per solver run; the epoch count depends only on the data
/// and options (convergence is deterministic).
void CountEpochs(int n) {
  static Counter* epochs_counter = MetricRegistry::Global().GetCounter("mb.train.epochs");
  epochs_counter->Increment(n);
}

/// Soft-thresholding operator: the L1 shrink after each gradient step.
double SoftThreshold(double x, double threshold) {
  if (x > threshold) return x - threshold;
  if (x < -threshold) return x + threshold;
  return 0.0;
}

LogisticModel TrainAdaGrad(const CsrDataset& data, const LrOptions& options,
                           std::vector<double> weights) {
  const size_t n_features = data.num_features;
  double bias = 0.0;
  std::vector<double> grad_sq(n_features, 1e-8);
  double bias_grad_sq = 1e-8;

  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(options.seed);
  double prev_loss = std::numeric_limits<double>::infinity();

  // AdaGrad is inherently sequential — each step reads the weights the
  // previous step wrote; the CSR layout removes the per-example vector
  // indirection.
  int epochs_run = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    ++epochs_run;
    if (options.shuffle_each_epoch) rng.Shuffle(order);
    double loss_sum = 0.0;
    double weight_sum = 0.0;
    for (size_t idx : order) {
      const size_t begin = data.row_offsets[idx];
      const size_t end = data.row_offsets[idx + 1];
      double score = bias + data.offsets[idx];
      for (size_t k = begin; k < end; ++k) {
        if (data.ids[k] < n_features) score += data.values[k] * weights[data.ids[k]];
      }
      const double predicted = Sigmoid(score);
      loss_sum += data.weights[idx] * LogLoss(data.labels[idx], predicted);
      weight_sum += data.weights[idx];
      const double gradient_scale = data.weights[idx] * (predicted - data.labels[idx]);

      for (size_t k = begin; k < end; ++k) {
        const FeatureId id = data.ids[k];
        if (id >= n_features) continue;
        const double g = gradient_scale * data.values[k] + options.l2 * weights[id];
        grad_sq[id] += g * g;
        const double step = options.learning_rate / std::sqrt(grad_sq[id]);
        // Truncated-gradient L1: gradient step then shrink toward zero by
        // step * l1, clipping at zero.
        const double updated = weights[id] - step * g;
        weights[id] = SoftThreshold(updated, step * options.l1);
      }
      if (options.fit_bias) {
        const double g = gradient_scale;
        bias_grad_sq += g * g;
        bias -= options.learning_rate / std::sqrt(bias_grad_sq) * g;
      }
    }
    const double mean_loss = weight_sum > 0.0 ? loss_sum / weight_sum : 0.0;
    if (options.tolerance > 0.0 && prev_loss - mean_loss < options.tolerance) break;
    prev_loss = mean_loss;
  }
  CountEpochs(epochs_run);
  return LogisticModel(std::move(weights), bias);
}

}  // namespace

Result<LogisticModel> TrainLogisticRegression(const CsrDataset& data, const LrOptions& options,
                                              const std::vector<double>* initial_weights) {
  TraceSpan span("mb.train.lr");
  if (data.empty()) return Status::InvalidArgument("TrainLogisticRegression: empty dataset");
  if (initial_weights != nullptr && initial_weights->size() != data.num_features) {
    return Status::InvalidArgument("TrainLogisticRegression: initial_weights size mismatch");
  }
  for (double label : data.labels) {
    if (label != 0.0 && label != 1.0) {
      return Status::InvalidArgument("TrainLogisticRegression: labels must be 0 or 1");
    }
  }
  std::vector<double> weights =
      initial_weights != nullptr ? *initial_weights : std::vector<double>(data.num_features, 0.0);
  // Per-run aggregate adds; counts depend only on the dataset (see
  // DESIGN.md section 12).
  static Counter* runs_counter = MetricRegistry::Global().GetCounter("mb.train.runs");
  static Counter* examples_counter = MetricRegistry::Global().GetCounter("mb.train.examples");
  runs_counter->Increment(1);
  examples_counter->Increment(static_cast<int64_t>(data.size()));
  return TrainAdaGrad(data, options, std::move(weights));
}

Result<LogisticModel> TrainLogisticRegression(const Dataset& data, const LrOptions& options,
                                              const std::vector<double>* initial_weights) {
  return TrainLogisticRegression(FlattenDataset(data), options, initial_weights);
}

}  // namespace microbrowse
