// Copyright 2026 The Microbrowse Authors

#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ml/simd.h"

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
/// and options (convergence is deterministic), never on the thread count.
void CountEpochs(int n) {
  static Counter* epochs_counter = MetricRegistry::Global().GetCounter("mb.train.epochs");
  epochs_counter->Increment(n);
}

/// Soft-thresholding operator for the L1 proximal step.
double SoftThreshold(double x, double threshold) {
  if (x > threshold) return x - threshold;
  if (x < -threshold) return x + threshold;
  return 0.0;
}

/// Runs `fn(i)` for i in [0, count): across `pool` when present, serially
/// otherwise. The two paths compute identical results — parallelism is
/// purely a scheduling choice here (see the block partition below). An
/// index whose pool task failed is rerun on the caller's thread, so `fn`
/// must start each index afresh.
void ForEach(std::optional<ThreadPool>& pool, size_t count,
             const std::function<void(size_t)>& fn) {
  if (pool.has_value()) {
    pool->ParallelForAll(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

/// Fixed example-block partition for the proximal solver's parallel epoch
/// body. The partition depends only on the dataset shape — never on the
/// thread count — so the block-ordered reduction below produces bitwise
/// identical gradients for any number of workers. Block count is bounded
/// both by a minimum block size (the n_blocks x n_features dense reduction
/// is pure overhead when blocks are small — 64 blocks of 256 rows is what
/// made 8 threads LOSE to 1 on 2k-pair sweeps) and by the partial-gradient
/// scratch budget (one dense vector per block). 32 blocks keep 8-16
/// workers busy with slack for stragglers while halving the old reduction
/// cost; below ~2 blocks the solver just runs serially.
size_t NumGradientBlocks(size_t n, size_t n_features) {
  constexpr size_t kMinBlockSize = 1024;
  constexpr size_t kMaxBlocks = 32;
  constexpr size_t kScratchBudgetBytes = size_t{256} << 20;
  const size_t row_bytes = std::max<size_t>(1, n_features) * sizeof(double);
  const size_t memory_cap = std::max<size_t>(1, kScratchBudgetBytes / row_bytes);
  return std::clamp<size_t>(n / kMinBlockSize, 1, std::min(kMaxBlocks, memory_cap));
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
  // previous step wrote — so options.num_threads is ignored here; the CSR
  // layout still removes the per-example vector indirection.
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

LogisticModel TrainProximalBatch(const CsrDataset& data, const LrOptions& options,
                                 std::vector<double> weights) {
  const size_t n_features = data.num_features;
  const size_t n = data.size();
  double bias = 0.0;

  // Lipschitz-style step size: the *max* squared feature norm (plus one
  // for the implicit bias column) bounds every per-example logistic
  // Hessian by norm^2 / 4, hence the 4 / max_norm_sq step scale.
  double max_norm_sq = 1.0;
  for (size_t i = 0; i < n; ++i) {
    double norm_sq = 0.0;
    const size_t end = data.row_offsets[i + 1];
    for (size_t k = data.row_offsets[i]; k < end; ++k) {
      norm_sq += data.values[k] * data.values[k];
    }
    max_norm_sq = std::max(max_norm_sq, norm_sq + 1.0);
  }
  const double step = options.learning_rate * 4.0 / max_norm_sq;

  // Deterministic parallel epoch body: examples are split into a fixed
  // block grid (independent of thread count), every block accumulates its
  // own dense partial gradient, and each feature's total sums the block
  // partials in ascending block index. Floating-point addition order is
  // therefore a function of the dataset alone, so the trained weights are
  // bitwise identical for 1, 2 or 64 threads (the determinism suite
  // asserts exactly this; see DESIGN.md section 11). The per-row scoring,
  // the sigmoid and the reduce+prox pass run on the dispatched SIMD
  // kernels (ml/simd.h); scalar and AVX2 kernels are bitwise identical, so
  // the kernel choice never changes results either (DESIGN.md section 16).
  const simd::KernelFns& fns = simd::GetKernelFns(simd::ActiveKernel());
  const size_t n_blocks = NumGradientBlocks(n, n_features);
  std::optional<ThreadPool> pool;
  const size_t pool_threads =
      std::min<size_t>(static_cast<size_t>(std::max(1, options.num_threads)), n_blocks);
  if (pool_threads > 1) pool.emplace(pool_threads);

  // Flat per-block partial-gradient scratch: block b owns row b of an
  // n_blocks x n_features matrix, which the fused kernel walks column-wise
  // in ascending block order.
  std::vector<double> block_gradients(n_blocks * n_features, 0.0);
  // Per-example probabilities, written blockwise (disjoint row ranges).
  std::vector<double> probs(n, 0.0);
  struct BlockSums {
    double bias_gradient = 0.0;
    double loss = 0.0;
    double weight = 0.0;
  };
  std::vector<BlockSums> block_sums(n_blocks);
  // The weights as the epoch's gradients saw them. The proximal update
  // works in place, so a pool's feature chunk, which may be rerun after a
  // partial run, restores its slice from here first.
  std::vector<double> epoch_weights;

  // Feature chunks for the reduction + proximal update. Chunking does not
  // affect results at all (each feature reduces independently); it only
  // sizes the parallel tasks.
  const size_t n_feature_chunks =
      n_features == 0 ? 0 : std::min<size_t>(n_blocks, n_features);

  double prev_loss = std::numeric_limits<double>::infinity();
  int epochs_run = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    ++epochs_run;
    ForEach(pool, n_blocks, [&](size_t b) {
      double* gradient = block_gradients.data() + b * n_features;
      std::fill(gradient, gradient + n_features, 0.0);
      BlockSums sums;
      const size_t begin_row = b * n / n_blocks;
      const size_t end_row = (b + 1) * n / n_blocks;
      // Batched kernel scoring + sigmoid over the whole block, then a
      // serial sweep for the loss and the gradient scatter (the scatter's
      // indices collide, so it stays scalar in every kernel).
      double* block_probs = probs.data() + begin_row;
      fns.score_csr_rows(data.row_offsets.data(), data.ids.data(), data.values.data(),
                         data.offsets.data(), weights.data(), n_features, bias, begin_row,
                         end_row, block_probs);
      fns.sigmoid_vec(block_probs, end_row - begin_row, block_probs);
      for (size_t i = begin_row; i < end_row; ++i) {
        const size_t begin = data.row_offsets[i];
        const size_t end = data.row_offsets[i + 1];
        const double predicted = probs[i];
        sums.loss += data.weights[i] * LogLoss(data.labels[i], predicted);
        sums.weight += data.weights[i];
        const double gradient_scale =
            data.weights[i] * (predicted - data.labels[i]) / static_cast<double>(n);
        for (size_t k = begin; k < end; ++k) {
          if (data.ids[k] < n_features) gradient[data.ids[k]] += gradient_scale * data.values[k];
        }
        sums.bias_gradient += gradient_scale;
      }
      block_sums[b] = sums;
    });

    if (pool.has_value()) epoch_weights.assign(weights.begin(), weights.end());
    ForEach(pool, n_feature_chunks, [&](size_t c) {
      const size_t begin_feature = c * n_features / n_feature_chunks;
      const size_t end_feature = (c + 1) * n_features / n_feature_chunks;
      if (pool.has_value()) {
        std::copy(epoch_weights.begin() + begin_feature, epoch_weights.begin() + end_feature,
                  weights.begin() + begin_feature);
      }
      fns.fused_grad_prox(block_gradients.data(), n_blocks, n_features, begin_feature,
                          end_feature, step, options.l1, options.l2, weights.data());
    });

    double bias_gradient = 0.0;
    double loss_sum = 0.0;
    double weight_sum = 0.0;
    for (const BlockSums& sums : block_sums) {
      bias_gradient += sums.bias_gradient;
      loss_sum += sums.loss;
      weight_sum += sums.weight;
    }
    if (options.fit_bias) bias -= step * bias_gradient;

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
  // Per-run aggregate adds; counts depend only on the dataset, never on
  // options.num_threads (see DESIGN.md section 12).
  static Counter* runs_counter = MetricRegistry::Global().GetCounter("mb.train.runs");
  static Counter* examples_counter = MetricRegistry::Global().GetCounter("mb.train.examples");
  runs_counter->Increment(1);
  examples_counter->Increment(static_cast<int64_t>(data.size()));
  switch (options.solver) {
    case LrSolver::kAdaGrad:
      return TrainAdaGrad(data, options, std::move(weights));
    case LrSolver::kProximalBatch:
      return TrainProximalBatch(data, options, std::move(weights));
  }
  return Status::Internal("TrainLogisticRegression: unknown solver");
}

Result<LogisticModel> TrainLogisticRegression(const Dataset& data, const LrOptions& options,
                                              const std::vector<double>* initial_weights) {
  return TrainLogisticRegression(FlattenDataset(data), options, initial_weights);
}

}  // namespace microbrowse
