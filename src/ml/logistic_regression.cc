// Copyright 2026 The Microbrowse Authors

#include "ml/logistic_regression.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"

namespace microbrowse {

namespace {

/// Every solver run shuffles with this seed, so training is a function of
/// the data and the options alone.
constexpr uint64_t kShuffleSeed = 7;

/// Training stops once an epoch improves the mean log-loss by less than
/// this.
constexpr double kTolerance = 1e-6;

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
  Rng rng(kShuffleSeed);
  double prev_loss = std::numeric_limits<double>::infinity();

  // AdaGrad is inherently sequential — each step reads the weights the
  // previous step wrote.
  int epochs_run = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    ++epochs_run;
    rng.Shuffle(order);
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const size_t begin = data.row_offsets[idx];
      const size_t end = data.row_offsets[idx + 1];
      double score = bias + data.offsets[idx];
      for (size_t k = begin; k < end; ++k) {
        if (data.ids[k] < n_features) score += data.values[k] * weights[data.ids[k]];
      }
      const double predicted = Sigmoid(score);
      loss_sum += LogLoss(data.labels[idx], predicted);
      const double gradient_scale = predicted - data.labels[idx];

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
    const double mean_loss = loss_sum / static_cast<double>(order.size());
    if (prev_loss - mean_loss < kTolerance) break;
    prev_loss = mean_loss;
  }
  CountEpochs(epochs_run);
  return LogisticModel{std::move(weights), bias};
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

}  // namespace microbrowse
