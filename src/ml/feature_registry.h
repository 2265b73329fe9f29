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
//              artifact (names, their stored hash index and initial
//              weights all read in place; see io/pack_artifacts.h). Base
//              ids are 0 .. base_size()-1, identical to the ids the same
//              artifact produces through the heap loader, so trained
//              weight vectors index both layouts interchangeably.
//   overlay  — the heap-interned features, in a KeyTable whose entry order
//              is their id order (ids base_size() ..). With no base
//              attached (the training path, and TSV-loaded artifacts) the
//              overlay is the whole registry.
//
// Both layers are probed with a name's index hash (pack::HashedKey), so a
// name is hashed once for either.
//
// Copying a pack-backed registry copies the overlay and shares the base
// (one shared_ptr bump). Serving never copies: PredictPairMargin reads
// the bundle's registries through Find and InitialWeightOf only.

#ifndef MICROBROWSE_ML_FEATURE_REGISTRY_H_
#define MICROBROWSE_ML_FEATURE_REGISTRY_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/key_table.h"
#include "pack/hash_index.h"
#include "pack/pack_reader.h"

namespace microbrowse {

/// Dense feature index, handed out by FeatureRegistry in interning order.
using FeatureId = uint32_t;

/// Sentinel for features absent from the registry.
inline constexpr FeatureId kInvalidFeatureId = static_cast<FeatureId>(-1);

/// Bidirectional feature-name <-> id map with per-feature initial weights.
class FeatureRegistry {
 public:
  FeatureRegistry() = default;

  /// Returns the id of `name`, registering it (with `initial_weight`) when
  /// new. A later call with a different initial weight for an existing
  /// feature leaves the stored weight unchanged. New features always land
  /// in the overlay; the base is immutable.
  FeatureId Intern(std::string_view name, double initial_weight = 0.0);

  /// Registers `name`, which must be absent (Find just returned
  /// kInvalidFeatureId), and returns its new id without probing for it
  /// again: the id Intern would return. Reuses `name`'s index hash.
  FeatureId InternNew(const pack::HashedKey& name, double initial_weight);
  FeatureId InternNew(std::string_view name, double initial_weight) {
    return InternNew(pack::HashedKey(name), initial_weight);
  }

  /// Id of `name`, or kInvalidFeatureId when absent. Never allocates: the
  /// pack's stored hash index and the overlay are both probed with
  /// `name`'s index hash.
  FeatureId Find(const pack::HashedKey& name) const {
    if (base_count_ > 0) {
      const size_t base_id = base_index_.Find(base_names_, name);
      if (base_id != pack::HashIndex::kNotFound) return static_cast<FeatureId>(base_id);
    }
    if (overlay_.empty()) return kInvalidFeatureId;
    const size_t entry = overlay_.Find(name.text(), name.hash());
    return entry != KeyTable<double>::kNotFound ? static_cast<FeatureId>(base_count_ + entry)
                                                : kInvalidFeatureId;
  }
  FeatureId Find(std::string_view name) const { return Find(pack::HashedKey(name)); }

  /// Name of `id`; `id` must be valid. The view borrows either the mapped
  /// pack (base ids) or this registry's heap storage (overlay ids); both
  /// outlive any sane use, but don't cache it past a registry mutation.
  std::string_view NameOf(FeatureId id) const {
    return id < base_count_ ? base_names_.at(id) : overlay_.key(id - base_count_);
  }

  /// Warm-start weight of `id`; `id` must be valid.
  double InitialWeightOf(FeatureId id) const {
    return id < base_count_ ? base_init_[id] : overlay_.value(id - base_count_);
  }

  /// Overrides the warm-start weight of an existing feature. Training-path
  /// only: `id` must be an overlay (heap-interned) feature — the mmap base
  /// is immutable.
  void SetInitialWeight(FeatureId id, double weight) {
    assert(id >= base_count_ && "SetInitialWeight on an immutable pack-backed feature");
    overlay_.value(id - base_count_) = weight;
  }

  /// Dense copy of all initial weights, indexed by FeatureId.
  std::vector<double> InitialWeights() const {
    std::vector<double> weights;
    weights.reserve(size());
    weights.assign(base_init_, base_init_ + base_count_);
    weights.insert(weights.end(), overlay_.values().begin(), overlay_.values().end());
    return weights;
  }

  /// Installs the immutable base layer. `names` holds every base feature
  /// name in *id order*; `index` is the hash index over `names` (so a hit
  /// is the id); `initial_weights` is dense in id order. All three borrow
  /// `pack`'s mapping, which this registry keeps alive. Must be called on
  /// an empty registry, at most once.
  void AttachPackBase(std::shared_ptr<const pack::PackReader> pack,
                      pack::StringTable names, pack::HashIndex index,
                      const double* initial_weights);

  /// Number of features in the immutable base layer (0 when heap-only).
  size_t base_size() const { return base_count_; }

  size_t size() const { return base_count_ + overlay_.size(); }
  bool empty() const { return size() == 0; }

 private:
  // Overlay (heap) layer: name -> initial weight; entry i is id
  // base_count_ + i.
  KeyTable<double> overlay_;

  // Optional immutable base layer; ids 0 .. base_count_-1. The PackReader
  // anchors the mapped memory every view below points into.
  std::shared_ptr<const pack::PackReader> pack_;
  pack::StringTable base_names_;
  pack::HashIndex base_index_;
  const double* base_init_ = nullptr;
  FeatureId base_count_ = 0;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_ML_FEATURE_REGISTRY_H_
