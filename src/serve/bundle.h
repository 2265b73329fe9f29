// Copyright 2026 The Microbrowse Authors
//
// The serving model bundle: everything one request needs to score —
// trained classifier + registries, feature-statistics database, the
// classifier configuration, a pointwise CTR predictor and an examination
// curve fitted from the learned position weights. Bundles are immutable
// once published; BundleRegistry swaps a generation-counted
// shared_ptr<const ModelBundle> atomically, so hot reload never blocks
// or tears in-flight requests: they finish on the generation they
// started with, and the old bundle is freed when its last request drops
// the reference.
//
// Reload is all-or-nothing: the replacement artifacts are loaded and
// validated (checksummed strict loads via io/serialization) into a fresh
// bundle *before* the swap. A corrupt or missing replacement leaves the
// previous generation serving — the failure mode the paper's production
// setting cares about most (an ad server must keep scoring through a bad
// model push).

#ifndef MICROBROWSE_SERVE_BUNDLE_H_
#define MICROBROWSE_SERVE_BUNDLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/ctr_predictor.h"
#include "microbrowse/model.h"

namespace microbrowse {
namespace serve {

/// Artifact paths + model type for one bundle load. Each path may name a
/// TSV artifact (io/serialization.h) or an mbpack container
/// (io/pack_artifacts.h) — LoadBundle sniffs the magic bytes and picks the
/// loader, so operators switch formats by swapping files, not flags.
struct BundlePaths {
  std::string model_path;
  std::string stats_path;
  /// Name of the classifier configuration the model was trained with
  /// (M1..M6); selects the feature-extraction recipe at serve time.
  std::string model_type = "M6";
};

/// One immutable serving generation.
struct ModelBundle {
  uint64_t generation = 0;
  SavedClassifier classifier;
  FeatureStatsDb stats;
  ClassifierConfig config;
  /// Examination curve fitted from the learned position factor (fallback:
  /// the TOP-placement prior when the model has no usable position grid).
  ExaminationCurve curve;
  /// True when `curve` was fitted from the model rather than the prior.
  bool curve_fitted = false;
  /// Pointwise scorer that reads `classifier` and `stats` in place
  /// (constructed after the members above are at their final addresses —
  /// see LoadBundle).
  std::optional<CtrPredictor> predictor;
  BundlePaths paths;
  /// Combined FNV-1a/64 over the raw bytes of both artifact files —
  /// Reload() compares the fingerprint of the files on disk against this
  /// to skip the swap when nothing changed (a SIGHUP against unchanged
  /// files costs two file reads, no parsing, no generation bump).
  uint64_t content_checksum = 0;
};

/// Loads a bundle from `paths` (strict checksummed loads) and assigns it
/// `generation`. Fails without side effects on any artifact problem.
/// Failpoint: serve.bundle.load fires after the artifact loads succeed —
/// the hook reload tests use to fail a structurally-valid replacement.
Result<std::shared_ptr<const ModelBundle>> LoadBundle(const BundlePaths& paths,
                                                      uint64_t generation);

/// Holds the current serving bundle and performs atomic hot reloads.
class BundleRegistry {
 public:
  BundleRegistry() = default;

  /// Loads the initial generation (generation 1). Must be called once,
  /// before Current().
  Status LoadInitial(const BundlePaths& paths);

  /// Re-loads from the same paths into generation N+1 and publishes it.
  /// When the artifacts on disk are unchanged since the serving bundle
  /// loaded (content fingerprint match) the reload is skipped: OK is
  /// returned, no generation bump, skipped_reload_count() increments.
  /// `force` bypasses the fingerprint and always performs the full load —
  /// the operator escape hatch for e.g. picking up a filesystem remount.
  /// On failure the previous generation keeps serving and the error is
  /// returned. Concurrent Reload calls are serialized.
  Status Reload(bool force = false);

  /// The current bundle; never null after a successful LoadInitial.
  /// Lock-free (atomic shared_ptr load) — callers hold the returned
  /// pointer for the duration of one request.
  std::shared_ptr<const ModelBundle> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Generation of the current bundle (0 before LoadInitial).
  uint64_t generation() const {
    const auto bundle = Current();
    return bundle ? bundle->generation : 0;
  }

  /// Number of successful reloads (initial load excluded; short-circuited
  /// reloads are counted separately).
  int64_t reload_count() const { return reloads_.load(std::memory_order_relaxed); }
  /// Number of reloads skipped because the artifact files were
  /// byte-identical to the serving bundle.
  int64_t skipped_reload_count() const {
    return skipped_reloads_.load(std::memory_order_relaxed);
  }
  /// Number of failed reload attempts.
  int64_t failed_reload_count() const {
    return failed_reloads_.load(std::memory_order_relaxed);
  }
  /// True when the most recent reload attempt failed — the registry is
  /// still serving, but on a generation older than the operator intended.
  /// The readyz health surface reports this as "degraded"; a later
  /// successful reload clears it.
  bool last_reload_failed() const {
    return last_reload_failed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::shared_ptr<const ModelBundle>> current_;
  std::mutex reload_mu_;  ///< Serializes Reload; never held on the read path.
  std::atomic<int64_t> reloads_{0};
  std::atomic<int64_t> skipped_reloads_{0};
  std::atomic<int64_t> failed_reloads_{0};
  std::atomic<bool> last_reload_failed_{false};
};

}  // namespace serve
}  // namespace microbrowse

#endif  // MICROBROWSE_SERVE_BUNDLE_H_
