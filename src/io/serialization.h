// Copyright 2026 The Microbrowse Authors
//
// Persistence for the library's main artefacts, in line-oriented TSV
// formats chosen for greppability and version-control friendliness:
//
//   AdCorpus            <- one creative per row, lines joined with " | "
//   FeatureStatsDb      <- key \t positive \t total
//   SnippetClassifierModel + registries  <- sectioned weight dump
//
// All Save* functions are crash-safe (temp file + fsync + atomic rename —
// see io/atomic_file.h) and append a "#checksum <fnv64> <rows>" footer.
// Every loader verifies the footer and validates each row; the LoadOptions
// overloads select between strict failure and skip_and_log salvage, with a
// LoadReport accounting for every kept and skipped row.

#ifndef MICROBROWSE_IO_SERIALIZATION_H_
#define MICROBROWSE_IO_SERIALIZATION_H_

#include <string>

#include "common/result.h"
#include "corpus/ad.h"
#include "io/atomic_file.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"

namespace microbrowse {

/// Writes `corpus` to `path` as TSV:
///   adgroup_id  keyword_id  keyword  creative_id  impressions  clicks
///   true_ctr  line1|line2|line3
Status SaveAdCorpus(const AdCorpus& corpus, const std::string& path);

/// Loads a corpus written by SaveAdCorpus. Creatives are re-grouped by
/// adgroup id; row order within an adgroup is preserved. `report` (when
/// non-null) receives row accounting; the one-argument form is strict.
Result<AdCorpus> LoadAdCorpus(const std::string& path, const LoadOptions& options,
                              LoadReport* report = nullptr);
Result<AdCorpus> LoadAdCorpus(const std::string& path);

/// Writes the statistics database as "key \t positive \t total" rows,
/// sorted by key for stable diffs. Smoothing / min-count settings are
/// stored in a header line.
Status SaveFeatureStats(const FeatureStatsDb& db, const std::string& path);

/// Loads a statistics database written by SaveFeatureStats.
Result<FeatureStatsDb> LoadFeatureStats(const std::string& path, const LoadOptions& options,
                                        LoadReport* report = nullptr);
Result<FeatureStatsDb> LoadFeatureStats(const std::string& path);

/// A trained classifier bundled with the registries that give its weight
/// vectors meaning.
struct SavedClassifier {
  SnippetClassifierModel model;
  FeatureRegistry t_registry;
  FeatureRegistry p_registry;
};

/// Writes model weights plus both registries (names, initial and trained
/// weights) in a sectioned text format.
Status SaveClassifier(const SnippetClassifierModel& model, const FeatureRegistry& t_registry,
                      const FeatureRegistry& p_registry, const std::string& path);

/// Loads a classifier written by SaveClassifier. In skip_and_log mode a
/// malformed registry row drops only that feature (each row is a
/// self-contained name/initial/trained triple); structural damage (missing
/// sections, truncation) always fails.
Result<SavedClassifier> LoadClassifier(const std::string& path, const LoadOptions& options,
                                       LoadReport* report = nullptr);
Result<SavedClassifier> LoadClassifier(const std::string& path);

}  // namespace microbrowse

#endif  // MICROBROWSE_IO_SERIALIZATION_H_
