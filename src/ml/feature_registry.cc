// Copyright 2026 The Microbrowse Authors

#include "ml/feature_registry.h"

namespace microbrowse {

FeatureId FeatureRegistry::Intern(std::string_view name, double initial_weight) {
  const pack::HashedKey key(name);
  const FeatureId found = Find(key);
  return found != kInvalidFeatureId ? found : InternNew(key, initial_weight);
}

FeatureId FeatureRegistry::InternNew(const pack::HashedKey& name, double initial_weight) {
  assert(Find(name) == kInvalidFeatureId && "InternNew on a registered feature");
  return static_cast<FeatureId>(base_count_ +
                                overlay_.InsertNew(name.text(), name.hash(), initial_weight));
}

void FeatureRegistry::AttachPackBase(std::shared_ptr<const pack::PackReader> pack,
                                     pack::StringTable names, pack::HashIndex index,
                                     const double* initial_weights) {
  assert(empty() && base_count_ == 0 && "AttachPackBase on a non-empty registry");
  pack_ = std::move(pack);
  base_names_ = names;
  base_index_ = index;
  base_init_ = initial_weights;
  base_count_ = static_cast<FeatureId>(names.size());
}

}  // namespace microbrowse
