// Copyright 2026 The Microbrowse Authors
//
// The mbpack artifact schemas: how the library's serving artefacts — the
// feature-statistics database and the trained classifier — are laid out
// inside the generic mbpack container (src/pack). TSV artifacts
// (io/serialization.h) remain the greppable interchange format; packs are
// the *serving* format: a single mmap at open, hash-indexed lookups
// straight off the mapping, and no per-record parsing or hashing at load.
//
// Section-id registry (unique within one pack; ids are frozen once shipped):
//
//   stats pack ("stats.mbp")
//     10                     StatsMeta
//     20 + 4c + 0            class-c key offsets   (uint64, count+1 entries)
//     20 + 4c + 1            class-c key bytes     (concatenated, sorted)
//     20 + 4c + 2            class-c records       (FeatureStat, key order)
//     20 + 4c + 3            class-c key index     (pack/hash_index.h slots)
//   for n-gram classes c in 0..kNumStatsClasses-1 (see StatsKeyClass).
//
//   classifier pack ("model.mbp")
//     40                     ModelMeta
//     50/60 + 0              T/P registry name offsets (uint64, id order)
//     50/60 + 1              T/P registry name bytes
//     50/60 + 2              retired: format 1's sorted permutation
//     50/60 + 3              T/P initial weights       (double, id order)
//     50/60 + 4              T/P trained weights       (double, id order)
//     50/60 + 5              T/P name index            (pack/hash_index.h slots)
//
// Registry names are stored in *id order* and their index maps a name
// straight to its id, so a pack-backed FeatureRegistry assigns exactly the
// ids the TSV loader would — trained weight vectors, and therefore scores,
// are bitwise-identical across the two read paths. Stats keys stay sorted
// within each class for the "rw:" range scan and ForEach order.

#ifndef MICROBROWSE_IO_PACK_ARTIFACTS_H_
#define MICROBROWSE_IO_PACK_ARTIFACTS_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "io/serialization.h"
#include "microbrowse/stats_db.h"

namespace microbrowse {

// --- Section ids (see the registry in the header comment).

inline constexpr uint32_t kSecStatsMeta = 10;
/// First section id of stats class `c`; +0 offsets, +1 bytes, +2 records,
/// +3 key index.
inline constexpr uint32_t StatsClassSection(int c) {
  return 20 + 4 * static_cast<uint32_t>(c);
}

inline constexpr uint32_t kSecModelMeta = 40;
/// First section id of a registry block; +0 offsets, +1 bytes, +3 initial
/// weights, +4 trained weights, +5 name index (+2 is retired).
inline constexpr uint32_t kSecTRegistry = 50;
inline constexpr uint32_t kSecPRegistry = 60;

/// Fixed-size metadata record of a stats pack.
struct StatsMeta {
  double smoothing = 1.0;
  int64_t min_count = 0;
  uint64_t class_counts[kNumStatsClasses] = {};  ///< Keys per n-gram class.
};
static_assert(sizeof(StatsMeta) == 16 + 8 * kNumStatsClasses);

/// Fixed-size metadata record of a classifier pack.
struct ModelMeta {
  double bias = 0.0;
  uint64_t t_count = 0;  ///< Features in the T (relevance) registry.
  uint64_t p_count = 0;  ///< Features in the P (position) registry.
};
static_assert(sizeof(ModelMeta) == 24);

/// Writes `db` (both layers) as a stats pack. Keys are partitioned by
/// StatsKeyClass and sorted within each class.
Status SaveStatsPack(const FeatureStatsDb& db, const std::string& path);

/// Opens a stats pack for in-place serving: one mmap, per-class sorted key
/// tables, their hash indexes and record arrays attached as the database's
/// immutable base layer. Nothing is copied or hashed; the returned
/// database keeps the mapping alive.
Result<FeatureStatsDb> LoadStatsPack(const std::string& path);

/// Writes a trained classifier + registries as a classifier pack.
Status SaveClassifierPack(const SnippetClassifierModel& model,
                          const FeatureRegistry& t_registry, const FeatureRegistry& p_registry,
                          const std::string& path);

/// Opens a classifier pack: registry names / name indexes / initial
/// weights are served straight from the mapping; the dense trained weight
/// vectors are memcpy'd into the model (zero parsing — see DESIGN.md
/// section 14 for the tradeoff).
Result<SavedClassifier> LoadClassifierPack(const std::string& path);

/// True when `path` starts with the mbpack magic — the sniff that lets
/// every artifact-loading surface (mbctl flags, bundle paths) accept a TSV
/// file or a pack interchangeably. IOError when the file cannot be read.
Result<bool> IsPackFile(const std::string& path);

/// Human-readable dump of a pack's header, section table (with names for
/// known section ids), checksums and artifact metadata — the body of
/// `mbctl pack-inspect`. Validates exactly as hard as PackReader::Open.
Result<std::string> DescribePack(const std::string& path);

/// Content fingerprint of `path`, used to short-circuit reloads when the
/// bundle on disk is unchanged. TSV artifacts hash every byte (FNV-1a/64).
/// mbpack files combine the whole-file checksum already recorded in their
/// footer with the file size, inode and mtime — O(1) regardless of pack
/// size, and any push (atomic rename or in-place rewrite) moves it, which
/// routes the push to the full reload where the checksummed open verifies
/// it. Does not itself verify the pack.
Result<uint64_t> FileChecksum(const std::string& path);

}  // namespace microbrowse

#endif  // MICROBROWSE_IO_PACK_ARTIFACTS_H_
