// Copyright 2026 The Microbrowse Authors

#include "ml/metrics.h"

#include <algorithm>
#include <array>

#include "common/thread_pool.h"

namespace microbrowse {

namespace {

/// Below this size the parallel paths are pure overhead.
constexpr size_t kParallelMetricsThreshold = 4096;

}  // namespace

double BinaryMetrics::accuracy() const {
  const int64_t n = total();
  return n > 0 ? static_cast<double>(true_positives + true_negatives) / static_cast<double>(n)
               : 0.0;
}

double BinaryMetrics::precision() const {
  const int64_t denom = true_positives + false_positives;
  return denom > 0 ? static_cast<double>(true_positives) / static_cast<double>(denom) : 0.0;
}

double BinaryMetrics::recall() const {
  const int64_t denom = true_positives + false_negatives;
  return denom > 0 ? static_cast<double>(true_positives) / static_cast<double>(denom) : 0.0;
}

double BinaryMetrics::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

namespace {

/// Counts the confusion matrix of scored[begin, end).
BinaryMetrics CountRange(const std::vector<ScoredLabel>& scored, double threshold,
                         size_t begin, size_t end) {
  BinaryMetrics m;
  for (size_t i = begin; i < end; ++i) {
    const ScoredLabel& s = scored[i];
    const bool predicted = s.score >= threshold;
    if (predicted) {
      if (s.label) {
        ++m.true_positives;
      } else {
        ++m.false_positives;
      }
    } else {
      if (s.label) {
        ++m.false_negatives;
      } else {
        ++m.true_negatives;
      }
    }
  }
  return m;
}

}  // namespace

BinaryMetrics ComputeBinaryMetrics(const std::vector<ScoredLabel>& scored, double threshold,
                                   int num_threads) {
  const size_t n = scored.size();
  if (num_threads <= 1 || n < kParallelMetricsThreshold) {
    return CountRange(scored, threshold, 0, n);
  }
  const size_t n_chunks = std::min<size_t>(static_cast<size_t>(num_threads) * 4, 64);
  std::vector<BinaryMetrics> partials(n_chunks);
  ThreadPool pool(static_cast<size_t>(num_threads));
  pool.ParallelForAll(n_chunks, [&](size_t c) {
    partials[c] = CountRange(scored, threshold, c * n / n_chunks, (c + 1) * n / n_chunks);
  });
  BinaryMetrics merged;
  for (const BinaryMetrics& partial : partials) merged = MergeMetrics(merged, partial);
  return merged;
}

BinaryMetrics MergeMetrics(const BinaryMetrics& a, const BinaryMetrics& b) {
  BinaryMetrics m = a;
  m.true_positives += b.true_positives;
  m.false_positives += b.false_positives;
  m.true_negatives += b.true_negatives;
  m.false_negatives += b.false_negatives;
  return m;
}

double ComputeAuc(const std::vector<ScoredLabel>& scored, int num_threads) {
  std::vector<ScoredLabel> sorted = scored;
  const auto by_score = [](const ScoredLabel& a, const ScoredLabel& b) {
    return a.score < b.score;
  };
  if (num_threads <= 1 || sorted.size() < kParallelMetricsThreshold) {
    std::sort(sorted.begin(), sorted.end(), by_score);
  } else {
    // Parallel chunked merge sort over a fixed chunk grid (independent of
    // thread count): sort each chunk, then pairwise in-place merges in a
    // fixed tree order, each round's disjoint merges running in parallel.
    // Equal-score elements may land in a different relative order than a
    // plain std::sort would produce, but the rank-sum walk below groups
    // equal scores, so the AUC value is unaffected.
    constexpr size_t kChunks = 16;
    const size_t n = sorted.size();
    std::array<size_t, kChunks + 1> bounds;
    for (size_t c = 0; c <= kChunks; ++c) bounds[c] = c * n / kChunks;
    ThreadPool pool(std::min<size_t>(static_cast<size_t>(num_threads), kChunks));
    pool.ParallelForAll(kChunks, [&](size_t c) {
      std::sort(sorted.begin() + bounds[c], sorted.begin() + bounds[c + 1], by_score);
    });
    for (size_t width = 1; width < kChunks; width *= 2) {
      std::vector<size_t> merge_lows;
      for (size_t low = 0; low + width < kChunks; low += 2 * width) merge_lows.push_back(low);
      pool.ParallelForAll(merge_lows.size(), [&](size_t m) {
        const size_t low = merge_lows[m];
        const size_t high = std::min(low + 2 * width, kChunks);
        std::inplace_merge(sorted.begin() + bounds[low], sorted.begin() + bounds[low + width],
                           sorted.begin() + bounds[high], by_score);
      });
    }
  }
  // Rank-sum with average ranks for ties.
  const size_t n = sorted.size();
  double positive_rank_sum = 0.0;
  size_t positives = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && sorted[j].score == sorted[i].score) ++j;
    const double avg_rank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (sorted[k].label) {
        positive_rank_sum += avg_rank;
        ++positives;
      }
    }
    i = j;
  }
  const size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = positive_rank_sum - static_cast<double>(positives) *
                                           (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

}  // namespace microbrowse
