// Copyright 2026 The Microbrowse Authors

#include "ml/feature_registry.h"

namespace microbrowse {

namespace {

/// Binary search for `name` over the base layer's sorted permutation.
/// Returns the *id* (not the sorted position), or kInvalidFeatureId.
FeatureId FindInBase(const pack::StringTable& names, const uint32_t* sorted, size_t count,
                     std::string_view name) {
  size_t lo = 0, hi = count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (names.at(sorted[mid]) < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < count && names.at(sorted[lo]) == name) {
    return static_cast<FeatureId>(sorted[lo]);
  }
  return kInvalidFeatureId;
}

}  // namespace

FeatureId FeatureRegistry::Intern(std::string_view name, double initial_weight) {
  if (base_count_ > 0) {
    const FeatureId base_id = FindInBase(base_names_, base_sorted_, base_count_, name);
    if (base_id != kInvalidFeatureId) return base_id;
  }
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const FeatureId id = static_cast<FeatureId>(base_count_ + names_.size());
  names_.emplace_back(name);
  initial_weights_.push_back(initial_weight);
  index_.emplace(names_.back(), id);
  return id;
}

FeatureId FeatureRegistry::Find(std::string_view name) const {
  if (base_count_ > 0) {
    const FeatureId base_id = FindInBase(base_names_, base_sorted_, base_count_, name);
    if (base_id != kInvalidFeatureId) return base_id;
  }
  auto it = index_.find(name);
  return it != index_.end() ? it->second : kInvalidFeatureId;
}

void FeatureRegistry::AttachPackBase(std::shared_ptr<const pack::PackReader> pack,
                                     pack::StringTable names, const uint32_t* sorted_ids,
                                     const double* initial_weights) {
  assert(empty() && base_count_ == 0 && "AttachPackBase on a non-empty registry");
  pack_ = std::move(pack);
  base_names_ = names;
  base_sorted_ = sorted_ids;
  base_init_ = initial_weights;
  base_count_ = static_cast<FeatureId>(names.size());
}

}  // namespace microbrowse
