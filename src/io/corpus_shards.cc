// Copyright 2026 The Microbrowse Authors

#include "io/corpus_shards.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/trace.h"
#include "io/serialization.h"

namespace microbrowse {

namespace {

/// Splits `base_path` into (prefix-before-extension, extension). The
/// extension is the final "." suffix of the FILENAME component; dotless
/// filenames get an empty extension.
std::pair<std::string, std::string> SplitExtension(const std::string& base_path) {
  const std::filesystem::path path(base_path);
  const std::string ext = path.extension().string();
  return {base_path.substr(0, base_path.size() - ext.size()), ext};
}

/// Parses a shard filename of the form `<stem>-NNNNN-of-MMMMM<ext>`.
/// Returns false when `name` does not match `stem` / `ext` or the tag is
/// malformed.
bool ParseShardName(const std::string& name, const std::string& stem, const std::string& ext,
                    size_t* index, size_t* count) {
  // Layout: stem + "-" + 5 digits + "-of-" + 5 digits + ext.
  constexpr size_t kTagLen = 1 + 5 + 4 + 5;  // "-NNNNN-of-MMMMM"
  if (name.size() != stem.size() + kTagLen + ext.size()) return false;
  if (name.compare(0, stem.size(), stem) != 0) return false;
  if (name.compare(name.size() - ext.size(), ext.size(), ext) != 0) return false;
  const std::string tag = name.substr(stem.size(), kTagLen);
  if (tag[0] != '-' || tag.compare(6, 4, "-of-") != 0) return false;
  size_t parsed_index = 0;
  size_t parsed_count = 0;
  for (int i = 1; i <= 5; ++i) {
    if (tag[i] < '0' || tag[i] > '9') return false;
    parsed_index = parsed_index * 10 + static_cast<size_t>(tag[i] - '0');
  }
  for (int i = 10; i <= 14; ++i) {
    if (tag[i] < '0' || tag[i] > '9') return false;
    parsed_count = parsed_count * 10 + static_cast<size_t>(tag[i] - '0');
  }
  *index = parsed_index;
  *count = parsed_count;
  return true;
}

}  // namespace

std::string ShardPath(const std::string& base_path, size_t index, size_t count) {
  const auto [prefix, ext] = SplitExtension(base_path);
  char tag[24];
  std::snprintf(tag, sizeof(tag), "-%05zu-of-%05zu", index, count);
  return prefix + tag + ext;
}

Result<ShardSetInfo> ResolveCorpusShards(const std::string& base_path) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(base_path, ec)) {
    ShardSetInfo info;
    info.paths.push_back(base_path);
    info.sharded = false;
    return info;
  }
  const std::filesystem::path base(base_path);
  const std::filesystem::path dir = base.has_parent_path() ? base.parent_path() : ".";
  const auto [prefix, ext] = SplitExtension(base.filename().string());
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("no corpus at " + base_path + " (directory missing)");
  }

  size_t count = 0;
  std::vector<std::string> by_index;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    size_t shard_index = 0;
    size_t shard_count = 0;
    if (!ParseShardName(entry.path().filename().string(), prefix, ext, &shard_index,
                        &shard_count)) {
      continue;
    }
    if (shard_count == 0 || shard_index >= shard_count) {
      return Status::FailedPrecondition("invalid shard tag on " + entry.path().string());
    }
    if (count == 0) {
      count = shard_count;
      by_index.assign(count, "");
    } else if (shard_count != count) {
      // Two generations with different counts in one directory: training on
      // either subset silently over- or under-reads, so refuse.
      return Status::FailedPrecondition(
          "mixed shard counts for " + base_path + ": found both -of-" +
          std::to_string(count) + " and -of-" + std::to_string(shard_count) + " shards");
    }
    if (!by_index[shard_index].empty()) {
      return Status::FailedPrecondition("duplicate shard index " + std::to_string(shard_index) +
                                        " for " + base_path);
    }
    by_index[shard_index] = entry.path().string();
  }
  if (count == 0) {
    return Status::NotFound("no corpus at " + base_path + " (no file, no shards)");
  }
  for (size_t i = 0; i < count; ++i) {
    if (by_index[i].empty()) {
      return Status::NotFound("missing shard " + ShardPath(base_path, i, count) + " of " +
                              std::to_string(count));
    }
  }
  ShardSetInfo info;
  info.paths = std::move(by_index);
  info.sharded = true;
  return info;
}

Status SaveAdCorpusSharded(const AdCorpus& corpus, const std::string& base_path,
                           size_t num_shards) {
  if (num_shards == 0 || num_shards > 99999) {
    return Status::InvalidArgument("num_shards must be in [1, 99999]");
  }
  for (size_t s = 0; s < num_shards; ++s) {
    AdCorpus shard;
    shard.placement = corpus.placement;
    for (size_t g = s; g < corpus.adgroups.size(); g += num_shards) {
      shard.adgroups.push_back(corpus.adgroups[g]);
    }
    MB_RETURN_IF_ERROR(SaveAdCorpus(shard, ShardPath(base_path, s, num_shards)));
  }
  return Status::OK();
}

Status ForEachCorpusShard(const ShardSetInfo& shards, const LoadOptions& options,
                          ShardLoadReport* report,
                          const std::function<Status(const AdCorpus&)>& fn) {
  if (report != nullptr) report->shards_total += shards.paths.size();
  for (const std::string& path : shards.paths) {
    LoadReport rows;
    auto corpus = LoadAdCorpus(path, options, &rows);
    if (report != nullptr) {
      report->rows_kept += rows.rows_kept;
      report->rows_skipped += rows.rows_skipped;
    }
    if (!corpus.ok()) {
      const std::string error = path + ": " + corpus.status().message();
      if (options.recovery == LoadOptions::Recovery::kStrict) {
        return Status(corpus.status().code(), "shard " + error);
      }
      MB_LOG(kWarning) << "skipping corpus shard " << error;
      if (report != nullptr) {
        ++report->shards_skipped;
        if (report->first_error.empty()) report->first_error = error;
      }
      continue;
    }
    if (report != nullptr) {
      ++report->shards_loaded;
      report->adgroups += static_cast<int64_t>(corpus->adgroups.size());
    }
    MB_RETURN_IF_ERROR(fn(*corpus));
  }
  return Status::OK();
}

Result<AdCorpus> LoadShardedAdCorpus(const ShardSetInfo& shards, const LoadOptions& options,
                                     ShardLoadReport* report) {
  AdCorpus merged;
  bool first = true;
  MB_RETURN_IF_ERROR(ForEachCorpusShard(shards, options, report, [&](const AdCorpus& shard) {
    if (first) {
      merged.placement = shard.placement;
      first = false;
    }
    merged.adgroups.insert(merged.adgroups.end(), shard.adgroups.begin(), shard.adgroups.end());
    return Status::OK();
  }));
  return merged;
}

Result<FeatureStatsDb> BuildFeatureStatsSharded(const ShardSetInfo& shards,
                                                const PairExtractionOptions& extraction,
                                                const BuildStatsOptions& options,
                                                const LoadOptions& load_options,
                                                ShardLoadReport* report) {
  FeatureStatsDb db;
  db.set_smoothing(options.smoothing);
  db.set_min_count(options.min_count);
  const int passes = options.matching_passes < 1 ? 1 : options.matching_passes;
  for (int pass = 0; pass < passes; ++pass) {
    FeatureStatsDb next;
    next.set_smoothing(options.smoothing);
    next.set_min_count(options.min_count);
    // Later passes re-stream the shards against the previous pass's
    // database; shard-level accounting is recorded on the first pass only,
    // so the report describes one traversal of the corpus.
    ShardLoadReport* pass_report = pass == 0 ? report : nullptr;
    MB_RETURN_IF_ERROR(
        ForEachCorpusShard(shards, load_options, pass_report, [&](const AdCorpus& shard) {
          const PairCorpus pairs = ExtractSignificantPairs(shard, extraction);
          if (pass == 0 && report != nullptr) {
            report->pairs += static_cast<int64_t>(pairs.pairs.size());
          }
          AccumulateFeatureStats(pairs, options, pass == 0 ? nullptr : &db, &next,
                                 StatsScopeOfPass(pass, passes));
          return Status::OK();
        }));
    db = std::move(next);
    db.set_smoothing(options.smoothing);
    db.set_min_count(options.min_count);
    db.BuildRewriteIndex();
  }
  return db;
}

Result<ShardedClassifierData> BuildCoupledCsrSharded(
    const ShardSetInfo& shards, const FeatureStatsDb& db, const ClassifierConfig& config,
    uint64_t seed, const PairExtractionOptions& extraction, const LoadOptions& load_options,
    ShardLoadReport* report) {
  TraceSpan span("mb.dataset.build");
  ShardedClassifierData data;
  data.csr.row_offsets.push_back(0);
  // One Rng across the whole stream: pair k of the concatenated corpus gets
  // the same presentation coin as in BuildClassifierDataset, so the CSR is
  // bitwise identical to the monolithic build.
  Rng rng(seed);
  std::vector<CoupledOccurrence> occurrences;
  MB_RETURN_IF_ERROR(
      ForEachCorpusShard(shards, load_options, report, [&](const AdCorpus& shard) {
        const PairCorpus pairs = ExtractSignificantPairs(shard, extraction);
        if (report != nullptr) report->pairs += static_cast<int64_t>(pairs.pairs.size());
        for (const SnippetPair& pair : pairs.pairs) {
          const bool swap = rng.Bernoulli(0.5);
          const SnippetObservation& first = swap ? pair.s : pair.r;
          const SnippetObservation& second = swap ? pair.r : pair.s;
          occurrences.clear();
          ExtractPairOccurrences(first.snippet, second.snippet, db, config, &data.t_registry,
                                 &data.p_registry, &occurrences);
          for (const CoupledOccurrence& occ : occurrences) {
            data.csr.t_ids.push_back(occ.t);
            data.csr.p_ids.push_back(occ.p);
            data.csr.signs.push_back(occ.sign);
          }
          data.csr.labels.push_back(first.serve_weight > second.serve_weight ? 1.0 : 0.0);
          data.csr.row_offsets.push_back(data.csr.t_ids.size());
        }
        return Status::OK();
      }));
  data.csr.t_init = data.t_registry.InitialWeights();
  data.csr.p_init = data.p_registry.InitialWeights();
  return data;
}

}  // namespace microbrowse
