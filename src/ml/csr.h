// Copyright 2026 The Microbrowse Authors
//
// Contiguous compressed-sparse-row (CSR) layout for training data. A
// Dataset stores one heap-allocated SparseVector per example, so the
// training inner loops chase a pointer per example and thrash the cache;
// CsrDataset packs every row into two parallel arrays (feature ids and
// values) indexed by a row-offset table, built once per dataset. The
// logistic-regression solver and the snippet-classifier phase builders
// stream this layout (DESIGN.md section 11).

#ifndef MICROBROWSE_ML_CSR_H_
#define MICROBROWSE_ML_CSR_H_

#include <cstddef>
#include <vector>

#include "ml/dataset.h"
#include "ml/sparse_vector.h"

namespace microbrowse {

/// A Dataset flattened into CSR form: example i's feature entries live in
/// ids/values[row_offsets[i] .. row_offsets[i+1]). Per-example scalars
/// (label, importance weight, fixed logit offset) are parallel arrays.
struct CsrDataset {
  size_t num_features = 0;
  std::vector<size_t> row_offsets;  ///< size() + 1 entries; front() == 0.
  std::vector<FeatureId> ids;       ///< Packed feature ids, row-major.
  std::vector<double> values;       ///< Parallel to `ids`.
  std::vector<double> labels;       ///< One per example (0.0 / 1.0).
  std::vector<double> weights;      ///< Importance weights.
  std::vector<double> offsets;      ///< Fixed additive logit offsets.

  size_t size() const { return labels.size(); }
  bool empty() const { return labels.empty(); }
  /// Total number of stored (id, value) entries.
  size_t num_entries() const { return ids.size(); }

  /// Raw linear score of row `i`: bias + offsets[i] + sum of value * w[id]
  /// over the row's entries (ids beyond `w`'s length contribute zero,
  /// matching SparseVector::Dot).
  double RowScore(size_t i, const std::vector<double>& w, double bias) const {
    double score = bias + offsets[i];
    const size_t end = row_offsets[i + 1];
    for (size_t k = row_offsets[i]; k < end; ++k) {
      if (ids[k] < w.size()) score += values[k] * w[ids[k]];
    }
    return score;
  }
};

/// Flattens `data` into CSR form; entry order within each row is
/// preserved, so scores and gradients are bitwise identical to iterating
/// the original SparseVectors.
CsrDataset FlattenDataset(const Dataset& data);

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_CSR_H_
