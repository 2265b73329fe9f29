// Copyright 2026 The Microbrowse Authors
//
// The feature-statistics database of Section V-C. For every feature (term,
// rewrite, term position, rewrite position pair) it accumulates how often
// the feature's presence coincided with a positive serve-weight difference
// (delta-sw = +1) across the pair corpus; the Laplace-smoothed odds ratio
// of that probability is the feature's statistic, and its log is the warm-
// start weight for the classifier.

#ifndef MICROBROWSE_MICROBROWSE_STATS_DB_H_
#define MICROBROWSE_MICROBROWSE_STATS_DB_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/key_table.h"
#include "common/math_util.h"
#include "microbrowse/pair.h"
#include "pack/hash_index.h"
#include "pack/pack_reader.h"

namespace microbrowse {

/// Counts for one feature key. The layout is part of the mbpack stats
/// artifact: record sections hold these structs verbatim, and the mmap
/// read path returns pointers straight into the mapping.
struct FeatureStat {
  int64_t positive = 0;  ///< Observations with delta-sw = +1.
  int64_t total = 0;

  /// Laplace-smoothed P(delta-sw = +1).
  double SmoothedP(double alpha = 1.0) const {
    return (static_cast<double>(positive) + alpha * 0.5) /
           (static_cast<double>(total) + alpha);
  }
  /// Odds ratio p / (1 - p) of the smoothed probability — the statistic the
  /// paper records.
  double OddsRatio(double alpha = 1.0) const {
    const double p = SmoothedP(alpha);
    return p / (1.0 - p);
  }
  /// log(p / (1 - p)); the classifier warm-start weight.
  double LogOdds(double alpha = 1.0) const { return Logit(SmoothedP(alpha)); }
};
static_assert(sizeof(FeatureStat) == 16 && alignof(FeatureStat) == 8,
              "FeatureStat is an on-disk mbpack record; its layout is frozen");

/// Number of n-gram record classes in the mbpack stats layout: class 0
/// holds every non-term key (rewrites, positions, position pairs), classes
/// 1..3 hold term keys by n-gram length (3 = trigrams and longer). The
/// partition exists so stats builds and packs can window per class, in the
/// style of netspeak's per-phrase-length corpus files.
inline constexpr int kNumStatsClasses = 4;

/// Deterministic class of a stats key — writer and mmap lookup must agree.
inline int StatsKeyClass(std::string_view key) {
  if (key.size() < 2 || key[0] != 't' || key[1] != ':') return 0;
  int spaces = 0;
  for (size_t i = 2; i < key.size() && spaces < 2; ++i) {
    if (key[i] == ' ') ++spaces;
  }
  return 1 + spaces;  // 0 spaces = unigram, 1 = bigram, 2+ = trigram+.
}

/// Which rewrite sides a statistics database pairs: for every side of
/// every "rw:<lo>=><hi>" key, the side hashes (RewriteSideHash) of the
/// sides it is paired with. Each reading of a key (ForEachRewriteSides)
/// enters lo under hi and hi under lo, so a candidate pair of texts whose
/// key the database holds is always reached from either side: the index
/// has no false negatives. A side hash collision can only add a partner,
/// and the matcher sends every partner to the exact Find.
///
/// Layout: the distinct side hashes in a dense array, found through an
/// open-addressing table of side numbers sized by their count, and each
/// side's partners as side numbers, contiguous in one array (side i's are
/// [begin_[i], begin_[i + 1])). It is an in-memory index only: never
/// persisted, so it carries no format or stability contract.
class RewritePartnerIndex {
 public:
  /// Builds the index from the side-hash pairs of every reading of every
  /// rewrite key without sorting: one pass over `pairs` numbers the sides
  /// and counts their partners, a second places the partners. A pair may
  /// repeat, and a side's partners then list a hash twice.
  explicit RewritePartnerIndex(std::span<const std::pair<uint64_t, uint64_t>> pairs);

  /// Calls `fn(partner_hash)` for every side some rewrite key pairs with a
  /// side hashed `side_hash`; calls nothing when no key has such a side.
  template <typename Fn>
  void ForEachPartner(uint64_t side_hash, Fn&& fn) const {
    const uint32_t side = slots_[Slot(side_hash)];  // Side number + 1.
    if (side == 0) return;
    for (uint32_t i = begin_[side - 1]; i < begin_[side]; ++i) fn(side_hashes_[partners_[i]]);
  }

  /// Distinct side hashes.
  size_t num_sides() const { return side_hashes_.size(); }

 private:
  /// The slot holding side `hash`, or the empty slot where it would go.
  size_t Slot(uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = Mix64(hash) & mask;
    while (slots_[slot] != 0 && side_hashes_[slots_[slot] - 1] != hash) slot = (slot + 1) & mask;
    return slot;
  }

  /// The number of side `hash`, added when it is new.
  uint32_t Intern(uint64_t hash);

  std::vector<uint32_t> slots_;        ///< Side number + 1; 0 = empty.
  std::vector<uint64_t> side_hashes_;  ///< By side number.
  std::vector<uint32_t> begin_;        ///< num_sides() + 1 partner offsets.
  std::vector<uint32_t> partners_;     ///< Side numbers.
};

/// Laplace smoothing pseudo-count of a new database, and so of every
/// database BuildFeatureStats builds; a loaded artifact carries its own.
inline constexpr double kStatsSmoothing = 1.0;

/// Keyed store of feature statistics. Keys come from feature_keys.h, so
/// term / rewrite / position statistics share one namespace-prefixed map.
///
/// Like FeatureRegistry, the store has up to two layers: an optional
/// immutable mmap-backed base (per-class sorted key tables, their stored
/// hash indexes and FeatureStat record arrays, all read in place from an
/// mbpack artifact) and a heap KeyTable. Both layers are probed with the
/// key's index hash (pack::HashedKey), computed once per key. Read
/// accessors consult the heap first, then the base; the mutating builders
/// (AddObservation & friends) always write the heap table and are not
/// meant for pack-backed instances — the serving read path never mutates.
///
/// A database may also carry a rewrite partner index (RewritePartnerIndex)
/// over its "rw:" keys, which lets the rewrite matcher find the candidate
/// pairs the database may score by lookup instead of spelling a key and
/// calling Find for every pair. BuildRewriteIndex builds it; every mutator
/// drops it, and without one the matcher sends every candidate to Find.
class FeatureStatsDb {
 public:
  FeatureStatsDb() = default;
  /// A heap-only database whose heap layer is `stats`, each key hashed by
  /// pack::IndexHash.
  explicit FeatureStatsDb(KeyTable<FeatureStat> stats) : stats_(std::move(stats)) {}

  /// Records one observation: `delta_sw` must be +1 or -1; -1 increments
  /// only the total (the feature coincided with a negative difference).
  /// Copies `key` only when it is new.
  void AddObservation(std::string_view key, int delta_sw) {
    rewrite_index_.reset();
    FeatureStat& stat = stats_.value(stats_.Insert(key, pack::IndexHash(key)).first);
    ++stat.total;
    if (delta_sw > 0) ++stat.positive;
  }

  /// Installs the exact counts for `key`, replacing any prior value. Used
  /// by deserialization, where counts were already aggregated — going
  /// through AddObservation would cost O(total) per key.
  void SetStat(std::string_view key, int64_t positive, int64_t total) {
    rewrite_index_.reset();
    stats_.value(stats_.Insert(key, pack::IndexHash(key)).first) = FeatureStat{positive, total};
  }

  /// Stat for `key`, or nullptr when unseen. For base hits the pointer
  /// aims straight into the mmap'd record section (valid for this
  /// object's lifetime); a heap hit is valid until the next mutation.
  const FeatureStat* Find(const pack::HashedKey& key) const {
    if (!stats_.empty()) {
      const size_t index = stats_.Find(key.text(), key.hash());
      if (index != KeyTable<FeatureStat>::kNotFound) return &stats_.value(index);
    }
    if (base_total_ > 0) {
      const BaseClass& cls = base_[static_cast<size_t>(StatsKeyClass(key.text()))];
      const size_t index = cls.index.Find(cls.keys, key);
      if (index != pack::HashIndex::kNotFound) return &cls.records[index];
    }
    return nullptr;
  }
  const FeatureStat* Find(std::string_view key) const { return Find(pack::HashedKey(key)); }

  /// Warm-start weight: log odds of `key`; 0 (neutral) for unseen features
  /// and for features below the min-count support threshold.
  double LogOdds(const pack::HashedKey& key) const {
    const FeatureStat* stat = Find(key);
    return stat != nullptr && stat->total >= min_count_ ? stat->LogOdds(smoothing_) : 0.0;
  }
  double LogOdds(std::string_view key) const { return LogOdds(pack::HashedKey(key)); }

  /// Odds ratio of `key`; 1 (neutral) for unseen or under-supported
  /// features.
  double OddsRatio(const pack::HashedKey& key) const {
    const FeatureStat* stat = Find(key);
    return stat != nullptr && stat->total >= min_count_ ? stat->OddsRatio(smoothing_) : 1.0;
  }
  double OddsRatio(std::string_view key) const { return OddsRatio(pack::HashedKey(key)); }

  /// Laplace smoothing pseudo-count used by the accessors.
  void set_smoothing(double alpha) { smoothing_ = alpha; }
  double smoothing() const { return smoothing_; }
  /// Whether `alpha` is a usable pseudo-count: positive and finite. Any
  /// other value makes LogOdds NaN, infinite or meaningless; the artifact
  /// loaders reject it.
  static bool ValidSmoothing(double alpha) { return std::isfinite(alpha) && alpha > 0.0; }

  /// Features observed fewer than `n` times report neutral statistics from
  /// LogOdds / OddsRatio. Rare features — in particular n-grams spanning a
  /// rewrite and its surrounding context — are near-unique to single
  /// adgroups, so their raw statistics memorise individual outcomes rather
  /// than estimate anything.
  void set_min_count(int64_t n) { min_count_ = n; }
  int64_t min_count() const { return min_count_; }

  size_t size() const { return base_total_ + stats_.size(); }
  /// The heap layer only, in insertion order — empty for a pack-backed
  /// database. Iterating callers should prefer ForEach, which sees both
  /// layers.
  const KeyTable<FeatureStat>& stats() const { return stats_; }

  /// Builds the rewrite partner index from every "rw:" key in both layers,
  /// hashing each side once. For the pack layer only class 0's sorted "rw:"
  /// range is read, located by binary search, so the rest of the mapping
  /// stays untouched.
  void BuildRewriteIndex();

  /// The rewrite partner index, or nullptr when none is built (a mutation
  /// since drops it). Without one, every rewrite may be present.
  const RewritePartnerIndex* rewrite_index() const {
    return rewrite_index_ ? &*rewrite_index_ : nullptr;
  }

  /// Visits every (key, stat) across both layers, heap entries first in
  /// insertion order, then base entries class by class in their sorted
  /// on-disk order. No deduplication: a heap entry shadowing a base key
  /// (which the supported workflows never create) would be visited twice.
  void ForEach(const std::function<void(std::string_view, const FeatureStat&)>& fn) const {
    for (const auto& [key, stat] : stats_) fn(key, stat);
    for (const BaseClass& cls : base_) {
      for (size_t i = 0; i < cls.keys.size(); ++i) fn(cls.keys.at(i), cls.records[i]);
    }
  }

  /// One immutable per-class view into a stats pack: `keys` sorted
  /// ascending (the "rw:" range scan and ForEach order rely on it),
  /// `index` the stored hash index over them that Find probes, and
  /// `records[i]` the stat of `keys.at(i)`.
  struct BaseClass {
    pack::StringTable keys;
    pack::HashIndex index;
    const FeatureStat* records = nullptr;
  };

  /// Installs the immutable mmap-backed base layer (one view per n-gram
  /// class; `pack` anchors the mapped memory). Must be called on an empty
  /// database, at most once.
  void AttachPackBase(std::shared_ptr<const pack::PackReader> pack,
                      const std::array<BaseClass, kNumStatsClasses>& classes) {
    rewrite_index_.reset();
    pack_ = std::move(pack);
    base_ = classes;
    base_total_ = 0;
    for (const BaseClass& cls : base_) base_total_ += cls.keys.size();
  }

  /// Number of entries in the immutable base layer (0 when heap-only).
  size_t base_size() const { return base_total_; }

 private:
  double smoothing_ = kStatsSmoothing;
  int64_t min_count_ = 0;
  KeyTable<FeatureStat> stats_;
  std::shared_ptr<const pack::PackReader> pack_;
  std::array<BaseClass, kNumStatsClasses> base_{};
  size_t base_total_ = 0;
  std::optional<RewritePartnerIndex> rewrite_index_;
};

/// Statistics-builder configuration.
struct BuildStatsOptions {
  /// Support threshold installed on the database (see
  /// FeatureStatsDb::set_min_count).
  int64_t min_count = 6;
  /// Worker threads per accumulation pass. Pairs are accumulated into
  /// per-chunk databases over a fixed chunk grid and merged by key; the
  /// counts are integers, so the resulting keys and counts are identical
  /// for any thread count (DESIGN.md section 11).
  int num_threads = 1;
};

/// Builds the feature-statistics database from a pair corpus (phase one of
/// the snippet-classification framework, Fig. 1) in two matching passes:
/// the first matches rewrites without a database (exact text and
/// positional heuristics), the second re-matches with the first's rewrite
/// statistics, sharpening phrase boundaries (Section IV-A).
FeatureStatsDb BuildFeatureStats(const PairCorpus& corpus, const BuildStatsOptions& options = {});

/// Which keys an accumulation pass records. The matcher reads a database
/// only through its rewrite keys ("rw:", and the index built from them),
/// so the first pass, whose database only guides the second pass's
/// matching, records just those; the second records every key.
enum class StatsScope {
  kAllKeys,       ///< Term, term-position, rewrite and position-pair keys.
  kRewritesOnly,  ///< Rewrite keys only: the first matching pass.
};

/// One accumulation pass of BuildFeatureStats over `corpus`, as a fresh
/// database: BuildFeatureStats runs it with (nullptr, kRewritesOnly), then
/// against that pass's indexed database with kAllKeys. Leaves the
/// min-count setting at its default, builds no rewrite index and records
/// no metrics; callers wanting a usable database should prefer
/// BuildFeatureStats.
FeatureStatsDb AccumulateFeatureStats(const PairCorpus& corpus, const BuildStatsOptions& options,
                                      const FeatureStatsDb* matching_db, StatsScope scope);

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_STATS_DB_H_
