// Copyright 2026 The Microbrowse Authors
//
// K-fold cross-validation splits. The paper's evaluation is standard
// 10-fold CV (Section V-D.2).

#ifndef MICROBROWSE_ML_CROSS_VALIDATION_H_
#define MICROBROWSE_ML_CROSS_VALIDATION_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace microbrowse {

/// Index sets for one CV fold.
struct CvFold {
  std::vector<size_t> train_indices;
  std::vector<size_t> test_indices;
};

/// Produces `k` folds over `group_ids.size()` examples: examples sharing a
/// group id always land in the same fold (e.g., creative pairs from one
/// adgroup), preventing within-group memorisation from leaking into the
/// test folds. Groups are shuffled by `seed` and dealt round-robin into
/// the k test sets, so every index appears in exactly one test set.
/// Requires 2 <= k <= the number of distinct groups.
Result<std::vector<CvFold>> MakeGroupedKFolds(const std::vector<int64_t>& group_ids, int k,
                                              uint64_t seed);

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_CROSS_VALIDATION_H_
