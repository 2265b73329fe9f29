// Copyright 2026 The Microbrowse Authors

#include "serve/bundle.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "io/pack_artifacts.h"
#include "microbrowse/feature_keys.h"

namespace microbrowse {
namespace serve {

namespace {

/// Grid of learned term-position weights (NaN = never observed), the input
/// FitExaminationCurve expects.
std::vector<std::vector<double>> LearnedPositionGrid(const SavedClassifier& classifier) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> grid(kMaxLineBucket + 1,
                                        std::vector<double>(kMaxPosBucket + 1, nan));
  for (int line = 0; line <= kMaxLineBucket; ++line) {
    for (int bucket = 0; bucket <= kMaxPosBucket; ++bucket) {
      const FeatureId id =
          classifier.p_registry.Find(TermPositionKey(PositionKey{line, bucket}));
      if (id != kInvalidFeatureId && id < classifier.model.p_weights.size()) {
        grid[line][bucket] = classifier.model.p_weights[id];
      }
    }
  }
  return grid;
}

/// Loads a classifier from either artifact format (magic-byte sniff).
Result<SavedClassifier> LoadClassifierAny(const std::string& path) {
  MB_ASSIGN_OR_RETURN(const bool is_pack, IsPackFile(path));
  if (is_pack) return LoadClassifierPack(path);
  return LoadClassifier(path);
}

/// Loads a stats database from either artifact format.
Result<FeatureStatsDb> LoadStatsAny(const std::string& path) {
  MB_ASSIGN_OR_RETURN(const bool is_pack, IsPackFile(path));
  if (is_pack) return LoadStatsPack(path);
  return LoadFeatureStats(path);
}

}  // namespace

/// Combined raw-byte fingerprint of the two artifact files.
static Result<uint64_t> BundleContentChecksum(const BundlePaths& paths) {
  MB_ASSIGN_OR_RETURN(const uint64_t model_checksum, FileChecksum(paths.model_path));
  MB_ASSIGN_OR_RETURN(const uint64_t stats_checksum, FileChecksum(paths.stats_path));
  return HashCombine(model_checksum, stats_checksum);
}

Result<std::shared_ptr<const ModelBundle>> LoadBundle(const BundlePaths& paths,
                                                      uint64_t generation) {
  MB_ASSIGN_OR_RETURN(ClassifierConfig config,
                      ClassifierConfig::ByName(paths.model_type));
  MB_ASSIGN_OR_RETURN(const uint64_t content_checksum, BundleContentChecksum(paths));
  MB_ASSIGN_OR_RETURN(SavedClassifier classifier, LoadClassifierAny(paths.model_path));
  MB_ASSIGN_OR_RETURN(FeatureStatsDb stats, LoadStatsAny(paths.stats_path));
  MB_FAILPOINT("serve.bundle.load");

  auto bundle = std::make_shared<ModelBundle>();
  bundle->generation = generation;
  bundle->classifier = std::move(classifier);
  bundle->stats = std::move(stats);
  bundle->config = std::move(config);
  bundle->paths = paths;
  bundle->content_checksum = content_checksum;

  auto fitted = FitExaminationCurve(LearnedPositionGrid(bundle->classifier));
  if (fitted.ok()) {
    bundle->curve = *std::move(fitted);
    bundle->curve_fitted = true;
  } else {
    bundle->curve = ExaminationCurve::TopPlacement();
    bundle->curve_fitted = false;
  }

  // The predictor reads the model, registries and stats DB through raw
  // pointers, so it must be constructed after the bundle members reached
  // their final heap address.
  CtrPredictorOptions predictor_options;
  predictor_options.fallback_curve = bundle->curve;
  bundle->predictor.emplace(bundle->classifier.model, bundle->classifier.t_registry,
                            bundle->classifier.p_registry, &bundle->stats,
                            predictor_options);
  return std::shared_ptr<const ModelBundle>(std::move(bundle));
}

Status BundleRegistry::LoadInitial(const BundlePaths& paths) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (current_.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("BundleRegistry: already loaded");
  }
  auto bundle = LoadBundle(paths, /*generation=*/1);
  if (!bundle.ok()) return bundle.status();
  current_.store(*std::move(bundle), std::memory_order_release);
  return Status::OK();
}

Status BundleRegistry::Reload(bool force) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  const auto current = current_.load(std::memory_order_acquire);
  if (current == nullptr) {
    return Status::FailedPrecondition("BundleRegistry: LoadInitial has not run");
  }
  // Short-circuit: when the files on disk are unchanged since the serving
  // bundle loaded there is nothing to do — skip the parse and the
  // generation bump entirely. A fingerprint failure (e.g. a file
  // mid-replace) falls through to the full load, whose own error handling
  // applies.
  if (!force) {
    const auto on_disk = BundleContentChecksum(current->paths);
    if (on_disk.ok() && *on_disk == current->content_checksum) {
      skipped_reloads_.fetch_add(1, std::memory_order_relaxed);
      MB_LOG(kInfo) << "reload skipped: artifacts unchanged (generation "
                    << current->generation << ")";
      return Status::OK();
    }
  }
  auto bundle = LoadBundle(current->paths, current->generation + 1);
  if (!bundle.ok()) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    last_reload_failed_.store(true, std::memory_order_relaxed);
    MB_LOG(kWarning) << "reload failed, keeping generation " << current->generation
                     << ": " << bundle.status().ToString();
    return bundle.status();
  }
  current_.store(*std::move(bundle), std::memory_order_release);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  last_reload_failed_.store(false, std::memory_order_relaxed);
  MB_LOG(kInfo) << "reloaded model bundle: generation " << current->generation << " -> "
                << current->generation + 1;
  return Status::OK();
}

}  // namespace serve
}  // namespace microbrowse
