// Copyright 2026 The Microbrowse Authors

#include "microbrowse/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "io/atomic_file.h"
#include "microbrowse/pipeline.h"

namespace microbrowse {

namespace {

constexpr char kManifestHeader[] = "#microbrowse-cv-manifest-v1";
constexpr char kStatsHeader[] = "#microbrowse-cv-stats-v1";
constexpr char kFoldHeader[] = "#microbrowse-cv-fold-v1";

/// Doubles cross the checkpoint as IEEE-754 bit patterns, never as decimal
/// text: resume must reproduce the uninterrupted run exactly.
uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<uint64_t> ParseHex64(std::string_view text) {
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("bad hex field: '" + std::string(text) + "'");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view text) {
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("bad integer field: '" + std::string(text) + "'");
  }
  return value;
}

uint64_t HashLrOptions(uint64_t h, const LrOptions& lr) {
  h = HashCombine(h, DoubleBits(lr.l1));
  h = HashCombine(h, DoubleBits(lr.l2));
  h = HashCombine(h, DoubleBits(lr.learning_rate));
  h = HashCombine(h, static_cast<uint64_t>(lr.epochs));
  h = HashCombine(h, static_cast<uint64_t>(lr.shuffle_each_epoch));
  h = HashCombine(h, static_cast<uint64_t>(lr.fit_bias));
  h = HashCombine(h, lr.seed);
  h = HashCombine(h, DoubleBits(lr.tolerance));
  return h;
}

bool FileExists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

}  // namespace

uint64_t CvCheckpoint::Fingerprint(size_t corpus_pairs, const ClassifierConfig& config,
                                   const PipelineOptions& options) {
  uint64_t h = Fnv1a64("microbrowse-cv-checkpoint");
  h = HashCombine(h, static_cast<uint64_t>(corpus_pairs));
  h = HashCombine(h, options.seed);
  h = HashCombine(h, static_cast<uint64_t>(options.folds));
  h = HashCombine(h, static_cast<uint64_t>(options.per_fold_stats));
  h = HashCombine(h, static_cast<uint64_t>(options.group_folds_by_adgroup));
  h = HashCombine(h, static_cast<uint64_t>(options.stats.max_ngram));
  h = HashCombine(h, DoubleBits(options.stats.smoothing));
  h = HashCombine(h, static_cast<uint64_t>(options.stats.min_count));
  h = HashCombine(h, static_cast<uint64_t>(options.stats.matching_passes));
  h = HashCombine(h, config.name);
  uint64_t flags = 0;
  for (bool flag : {config.use_term_features, config.use_rewrite_features, config.use_position,
                    config.term_position_conjunction, config.leftover_position_conjunction,
                    config.init_from_stats, config.drop_matched_rewrites,
                    config.diff_terms_only}) {
    flags = (flags << 1) | static_cast<uint64_t>(flag);
  }
  h = HashCombine(h, flags);
  h = HashCombine(h, static_cast<uint64_t>(config.coupled_iterations));
  h = HashCombine(h, static_cast<uint64_t>(config.matching));
  h = HashCombine(h, static_cast<uint64_t>(config.max_ngram));
  h = HashCombine(h, static_cast<uint64_t>(config.rewrite_min_support));
  h = HashLrOptions(h, config.lr);
  h = HashLrOptions(h, config.position_lr);
  return h;
}

Result<CvCheckpoint> CvCheckpoint::Open(const std::string& dir, uint64_t fingerprint) {
  if (dir.empty()) return Status::InvalidArgument("CvCheckpoint::Open: empty directory");
  MB_RETURN_IF_ERROR(CreateDirectories(dir));
  CvCheckpoint checkpoint(dir);
  const std::string manifest_path = dir + "/manifest.tsv";
  if (FileExists(manifest_path)) {
    MB_ASSIGN_OR_RETURN(const ArtifactContent content, ReadArtifact(manifest_path));
    if (content.lines.size() < 2 || content.lines[0] != kManifestHeader) {
      return Status::InvalidArgument(manifest_path + ": not a checkpoint manifest");
    }
    const auto fields = Split(content.lines[1], '\t');
    if (fields.size() != 2 || fields[0] != "fingerprint") {
      return Status::InvalidArgument(manifest_path + ": malformed fingerprint row");
    }
    MB_ASSIGN_OR_RETURN(const uint64_t recorded, ParseHex64(fields[1]));
    if (recorded != fingerprint) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint %s was written by a different run (fingerprint %016llx, this run "
          "%016llx) — corpus, seed, folds or classifier settings changed; use a fresh "
          "directory or delete the stale checkpoint",
          dir.c_str(), static_cast<unsigned long long>(recorded),
          static_cast<unsigned long long>(fingerprint)));
    }
    return checkpoint;
  }
  std::ostringstream out;
  out << kManifestHeader << '\n'
      << "fingerprint\t"
      << StrFormat("%016llx", static_cast<unsigned long long>(fingerprint)) << '\n';
  MB_RETURN_IF_ERROR(WriteArtifactAtomic(manifest_path, out.str(), 1));
  return checkpoint;
}

Status CvCheckpoint::SaveStats(const FeatureStatsDb& db) const {
  std::ostringstream out;
  out << kStatsHeader << '\t'
      << StrFormat("%016llx", static_cast<unsigned long long>(DoubleBits(db.smoothing())))
      << '\t' << db.min_count() << '\n';
  std::vector<const std::pair<const std::string, FeatureStat>*> rows;
  rows.reserve(db.stats().size());
  for (const auto& entry : db.stats()) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* row : rows) {
    out << row->first << '\t' << row->second.positive << '\t' << row->second.total << '\n';
  }
  return WriteArtifactAtomic(dir_ + "/stats.tsv", out.str(),
                             static_cast<int64_t>(rows.size()));
}

Result<bool> CvCheckpoint::LoadStats(FeatureStatsDb* db) const {
  const std::string path = dir_ + "/stats.tsv";
  if (!FileExists(path)) return false;
  MB_ASSIGN_OR_RETURN(const ArtifactContent content, ReadArtifact(path));
  if (content.lines.empty() || !StartsWith(content.lines[0], kStatsHeader)) {
    return Status::InvalidArgument(path + ": not a stats checkpoint");
  }
  const auto header = Split(content.lines[0], '\t');
  if (header.size() != 3) {
    return Status::InvalidArgument(path + ": malformed stats header");
  }
  MB_ASSIGN_OR_RETURN(const uint64_t smoothing_bits, ParseHex64(header[1]));
  MB_ASSIGN_OR_RETURN(const int64_t min_count, ParseInt64(header[2]));
  FeatureStatsDb loaded;
  loaded.set_smoothing(DoubleFromBits(smoothing_bits));
  loaded.set_min_count(min_count);
  for (size_t i = 1; i < content.lines.size(); ++i) {
    if (content.lines[i].empty()) continue;
    const auto fields = Split(content.lines[i], '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: malformed stats row", path.c_str(), i + 1));
    }
    MB_ASSIGN_OR_RETURN(const int64_t positive, ParseInt64(fields[1]));
    MB_ASSIGN_OR_RETURN(const int64_t total, ParseInt64(fields[2]));
    loaded.SetStat(fields[0], positive, total);
  }
  loaded.BuildRewriteIndex();
  *db = std::move(loaded);
  return true;
}

Status CvCheckpoint::SaveFoldScores(size_t fold,
                                    const std::vector<ScoredLabel>& scored) const {
  std::ostringstream out;
  out << kFoldHeader << '\t' << fold << '\n';
  for (const ScoredLabel& entry : scored) {
    out << StrFormat("%016llx", static_cast<unsigned long long>(DoubleBits(entry.score)))
        << '\t' << (entry.label ? 1 : 0) << '\n';
  }
  return WriteArtifactAtomic(dir_ + StrFormat("/fold_%03zu.tsv", fold), out.str(),
                             static_cast<int64_t>(scored.size()));
}

Result<bool> CvCheckpoint::LoadFoldScores(size_t fold,
                                          std::vector<ScoredLabel>* scored) const {
  const std::string path = dir_ + StrFormat("/fold_%03zu.tsv", fold);
  if (!FileExists(path)) return false;
  MB_ASSIGN_OR_RETURN(const ArtifactContent content, ReadArtifact(path));
  if (content.lines.empty() || !StartsWith(content.lines[0], kFoldHeader)) {
    return Status::InvalidArgument(path + ": not a fold checkpoint");
  }
  std::vector<ScoredLabel> loaded;
  loaded.reserve(content.lines.size() - 1);
  for (size_t i = 1; i < content.lines.size(); ++i) {
    if (content.lines[i].empty()) continue;
    const auto fields = Split(content.lines[i], '\t');
    if (fields.size() != 2 || (fields[1] != "0" && fields[1] != "1")) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: malformed fold row", path.c_str(), i + 1));
    }
    MB_ASSIGN_OR_RETURN(const uint64_t bits, ParseHex64(fields[0]));
    loaded.push_back(ScoredLabel{DoubleFromBits(bits), fields[1] == "1"});
  }
  *scored = std::move(loaded);
  return true;
}

}  // namespace microbrowse
