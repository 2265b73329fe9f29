// Copyright 2026 The Microbrowse Authors

#include "ml/cross_validation.h"

#include <algorithm>
#include <unordered_map>

#include "common/metrics.h"

namespace microbrowse {

Result<std::vector<CvFold>> MakeGroupedKFolds(const std::vector<int64_t>& group_ids, int k,
                                              uint64_t seed) {
  if (k < 2) return Status::InvalidArgument("MakeGroupedKFolds: k must be >= 2");
  // Collect distinct groups with their member indices.
  std::unordered_map<int64_t, std::vector<size_t>> members;
  std::vector<int64_t> groups;
  for (size_t i = 0; i < group_ids.size(); ++i) {
    auto [it, inserted] = members.try_emplace(group_ids[i]);
    if (inserted) groups.push_back(group_ids[i]);
    it->second.push_back(i);
  }
  if (groups.size() < static_cast<size_t>(k)) {
    return Status::InvalidArgument("MakeGroupedKFolds: fewer groups than folds");
  }
  Rng rng(seed);
  rng.Shuffle(groups);

  std::vector<std::vector<size_t>> test_sets(k);
  for (size_t g = 0; g < groups.size(); ++g) {
    auto& test = test_sets[g % static_cast<size_t>(k)];
    const auto& idx = members[groups[g]];
    test.insert(test.end(), idx.begin(), idx.end());
  }
  std::vector<CvFold> folds(k);
  for (int f = 0; f < k; ++f) {
    folds[f].test_indices = test_sets[f];
    for (int other = 0; other < k; ++other) {
      if (other == f) continue;
      folds[f].train_indices.insert(folds[f].train_indices.end(), test_sets[other].begin(),
                                    test_sets[other].end());
    }
    std::sort(folds[f].train_indices.begin(), folds[f].train_indices.end());
    std::sort(folds[f].test_indices.begin(), folds[f].test_indices.end());
  }
  static Counter* splits_counter = MetricRegistry::Global().GetCounter("mb.cv.fold_splits");
  splits_counter->Increment(1);
  return folds;
}

}  // namespace microbrowse
