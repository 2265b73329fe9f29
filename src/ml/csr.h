// Copyright 2026 The Microbrowse Authors
//
// Contiguous compressed-sparse-row (CSR) layout for training data: every
// row packed into two parallel arrays (feature ids and values) indexed by a
// row-offset table, so the solver's inner loops stream memory instead of
// chasing a pointer per example. It is the logistic-regression solver's
// only input; the snippet classifier builds one per training phase
// (DESIGN.md section 11).

#ifndef MICROBROWSE_ML_CSR_H_
#define MICROBROWSE_ML_CSR_H_

#include <cstddef>
#include <vector>

#include "ml/feature_registry.h"

namespace microbrowse {

/// Training rows in CSR form: example i's feature entries live in
/// ids/values[row_offsets[i] .. row_offsets[i+1]). Per-example scalars
/// (label, fixed logit offset) are parallel arrays.
struct CsrDataset {
  size_t num_features = 0;
  std::vector<size_t> row_offsets;  ///< size() + 1 entries; front() == 0.
  std::vector<FeatureId> ids;       ///< Packed feature ids, row-major.
  std::vector<double> values;       ///< Parallel to `ids`.
  std::vector<double> labels;       ///< One per example (0.0 / 1.0).
  std::vector<double> offsets;      ///< Fixed additive logit offsets.

  size_t size() const { return labels.size(); }
  bool empty() const { return labels.empty(); }
};

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_CSR_H_
