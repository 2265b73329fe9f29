// Copyright 2026 The Microbrowse Authors
//
// Maps human-readable feature names ("term:cheap flights@l2p1", "rw:find
// cheap->get discounts") to dense FeatureIds, and carries each feature's
// warm-start weight — the paper initialises classifier features from the
// feature-statistics database (Section V-D).
//
// A registry has up to two layers:
//
//   base     — an optional immutable, mmap-backed table from an mbpack
//              artifact (names, a sorted lookup permutation and initial
//              weights all read in place; see io/pack_artifacts.h). Base
//              ids are 0 .. base_size()-1, identical to the ids the same
//              artifact produces through the heap loader, so trained
//              weight vectors index both layouts interchangeably.
//   overlay  — the ordinary heap-interned features. With no base attached
//              (the training path, and TSV-loaded artifacts) the overlay
//              is the whole registry.
//
// Copying a pack-backed registry copies the overlay and shares the base
// (one shared_ptr bump). Serving never copies: PredictPairMargin reads
// the bundle's registries through Find and InitialWeightOf only.

#ifndef MICROBROWSE_ML_FEATURE_REGISTRY_H_
#define MICROBROWSE_ML_FEATURE_REGISTRY_H_

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ml/sparse_vector.h"
#include "pack/pack_reader.h"

namespace microbrowse {

/// Sentinel for features absent from the registry.
inline constexpr FeatureId kInvalidFeatureId = static_cast<FeatureId>(-1);

/// String hash that also accepts string_views, so Find and Intern probe
/// the overlay without materialising a std::string key.
struct FeatureNameHash {
  using is_transparent = void;
  size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};

/// Bidirectional feature-name <-> id map with per-feature initial weights.
class FeatureRegistry {
 public:
  FeatureRegistry() = default;

  /// Returns the id of `name`, registering it (with `initial_weight`) when
  /// new. A later call with a different initial weight for an existing
  /// feature leaves the stored weight unchanged. New features always land
  /// in the overlay; the base is immutable.
  FeatureId Intern(std::string_view name, double initial_weight = 0.0);

  /// Id of `name`, or kInvalidFeatureId when absent. Never allocates: base
  /// lookups are a binary search over the pack's sorted permutation, and
  /// the overlay is probed with the view itself.
  FeatureId Find(std::string_view name) const;

  /// Name of `id`; `id` must be valid. The view borrows either the mapped
  /// pack (base ids) or this registry's heap storage (overlay ids); both
  /// outlive any sane use, but don't cache it past a registry mutation.
  std::string_view NameOf(FeatureId id) const {
    return id < base_count_ ? base_names_.at(id) : std::string_view(names_[id - base_count_]);
  }

  /// Warm-start weight of `id`; `id` must be valid.
  double InitialWeightOf(FeatureId id) const {
    return id < base_count_ ? base_init_[id] : initial_weights_[id - base_count_];
  }

  /// Overrides the warm-start weight of an existing feature. Training-path
  /// only: `id` must be an overlay (heap-interned) feature — the mmap base
  /// is immutable.
  void SetInitialWeight(FeatureId id, double weight) {
    assert(id >= base_count_ && "SetInitialWeight on an immutable pack-backed feature");
    initial_weights_[id - base_count_] = weight;
  }

  /// Dense copy of all initial weights, indexed by FeatureId.
  std::vector<double> InitialWeights() const {
    std::vector<double> weights;
    weights.reserve(size());
    weights.assign(base_init_, base_init_ + base_count_);
    weights.insert(weights.end(), initial_weights_.begin(), initial_weights_.end());
    return weights;
  }

  /// Installs the immutable base layer. `names` holds every base feature
  /// name in *id order*; `sorted_ids` is a permutation of 0..names.size()-1
  /// such that names.at(sorted_ids[i]) ascends (the binary-search index);
  /// `initial_weights` is dense in id order. All three borrow `pack`'s
  /// mapping, which this registry keeps alive. Must be called on an empty
  /// registry, at most once.
  void AttachPackBase(std::shared_ptr<const pack::PackReader> pack,
                      pack::StringTable names, const uint32_t* sorted_ids,
                      const double* initial_weights);

  /// Number of features in the immutable base layer (0 when heap-only).
  size_t base_size() const { return base_count_; }

  size_t size() const { return base_count_ + names_.size(); }
  bool empty() const { return size() == 0; }

 private:
  // Overlay (heap) layer; ids base_count_ .. size()-1.
  std::unordered_map<std::string, FeatureId, FeatureNameHash, std::equal_to<>> index_;
  std::vector<std::string> names_;
  std::vector<double> initial_weights_;

  // Optional immutable base layer; ids 0 .. base_count_-1. The PackReader
  // anchors the mapped memory every view below points into.
  std::shared_ptr<const pack::PackReader> pack_;
  pack::StringTable base_names_;
  const uint32_t* base_sorted_ = nullptr;
  const double* base_init_ = nullptr;
  FeatureId base_count_ = 0;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_FEATURE_REGISTRY_H_
