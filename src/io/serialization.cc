// Copyright 2026 The Microbrowse Authors

#include "io/serialization.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace microbrowse {

namespace {

constexpr char kCorpusHeader[] = "#microbrowse-adcorpus-v1";
constexpr char kStatsHeader[] = "#microbrowse-stats-v1";
constexpr char kModelHeader[] = "#microbrowse-classifier-v1";

Status MalformedRow(const std::string& path, int line_number, const std::string& why) {
  return Status::InvalidArgument(
      StrFormat("%s:%d: %s", path.c_str(), line_number, why.c_str()));
}

/// Per-row error policy shared by all loaders: strict mode propagates the
/// first malformed row, skip_and_log mode records it (first error wins the
/// report slot), logs it, and lets the loader continue.
class RowRecovery {
 public:
  RowRecovery(const std::string& path, const LoadOptions& options, LoadReport* report)
      : path_(path), options_(options), report_(report) {}

  /// Returns non-OK iff the loader must abort (strict mode).
  Status OnBadRow(int line_number, const std::string& why) {
    const Status error = MalformedRow(path_, line_number, why);
    if (options_.recovery == LoadOptions::Recovery::kStrict) return error;
    if (report_ != nullptr) {
      ++report_->rows_skipped;
      if (report_->first_error.empty()) {
        report_->first_error = error.message();
        report_->first_error_line = line_number;
      }
    }
    MB_LOG(kWarning) << "skipping malformed row — " << error.message();
    return Status::OK();
  }

  void OnGoodRow() {
    if (report_ != nullptr) ++report_->rows_kept;
  }

 private:
  const std::string& path_;
  const LoadOptions& options_;
  LoadReport* report_;
};

/// Reads the artifact and mirrors the footer verdict into `report`.
Result<ArtifactContent> ReadArtifactReported(const std::string& path,
                                             const LoadOptions& options, LoadReport* report) {
  Result<ArtifactContent> content = ReadArtifact(path, options);
  if (content.ok() && report != nullptr) {
    report->checksum_present = content->checksum_present;
    report->checksum_ok = content->checksum_ok;
  }
  return content;
}

/// Joins a snippet's lines with " | " (tokens are whitespace-joined).
std::string SnippetToField(const Snippet& snippet) {
  std::vector<std::string> lines;
  for (int l = 0; l < snippet.num_lines(); ++l) {
    lines.push_back(Join(snippet.line(l), " "));
  }
  return Join(lines, " | ");
}

/// Inverse of SnippetToField. InvalidArgument when a line holds more than
/// kMaxLineTokens tokens.
Result<Snippet> SnippetFromField(const std::string& field) {
  const std::vector<std::string> lines = Split(field, '|');
  std::vector<std::vector<std::string>> token_lines;
  token_lines.reserve(lines.size());
  for (const std::string& line : lines) {
    token_lines.push_back(SplitWhitespace(line));
    MB_RETURN_IF_ERROR(CheckLineTokens(token_lines.size() - 1, token_lines.back().size()));
  }
  return Snippet::FromTokens(std::move(token_lines));
}

Result<int64_t> ParseInt(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("not a number: '" + text + "'");
  }
  return value;
}

}  // namespace

Status SaveAdCorpus(const AdCorpus& corpus, const std::string& path) {
  TraceSpan span("mb.artifact.write");
  std::ostringstream out;
  int64_t rows = 0;
  out << kCorpusHeader << '\t' << PlacementName(corpus.placement) << '\n';
  for (const AdGroup& group : corpus.adgroups) {
    for (const Creative& creative : group.creatives) {
      out << group.id << '\t' << group.keyword_id << '\t' << group.keyword << '\t'
          << creative.id << '\t' << creative.impressions << '\t' << creative.clicks << '\t'
          << FormatDouble(creative.true_ctr, 8) << '\t' << SnippetToField(creative.snippet)
          << '\n';
      ++rows;
    }
  }
  return WriteArtifactAtomic(path, out.str(), rows);
}

Result<AdCorpus> LoadAdCorpus(const std::string& path, const LoadOptions& options,
                              LoadReport* report) {
  TraceSpan span("mb.corpus.load");
  MB_ASSIGN_OR_RETURN(const ArtifactContent content,
                      ReadArtifactReported(path, options, report));
  if (content.lines.empty() || !StartsWith(content.lines[0], kCorpusHeader)) {
    return MalformedRow(path, 1, "missing adcorpus header");
  }
  RowRecovery recovery(path, options, report);
  AdCorpus corpus;
  {
    const auto header_fields = Split(content.lines[0], '\t');
    corpus.placement = header_fields.size() > 1 && header_fields[1] == "rhs"
                           ? Placement::kRhs
                           : Placement::kTop;
  }

  // Collect adgroups in first-seen order.
  std::map<int64_t, size_t> group_index;
  for (size_t i = 1; i < content.lines.size(); ++i) {
    const std::string& line = content.lines[i];
    const int line_number = static_cast<int>(i) + 1;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 8) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, "expected 8 tab-separated fields"));
      continue;
    }
    auto group_id = ParseInt(fields[0]);
    auto keyword_id = ParseInt(fields[1]);
    auto creative_id = ParseInt(fields[3]);
    auto impressions = ParseInt(fields[4]);
    auto clicks = ParseInt(fields[5]);
    auto true_ctr = ParseDouble(fields[6]);
    bool row_ok = true;
    for (const Status& status :
         {group_id.status(), keyword_id.status(), creative_id.status(), impressions.status(),
          clicks.status(), true_ctr.status()}) {
      if (!status.ok()) {
        MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, status.message()));
        row_ok = false;
        break;
      }
    }
    if (!row_ok) continue;
    if (*clicks < 0 || *impressions < 0 || *clicks > *impressions) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, "invalid click/impression counts"));
      continue;
    }
    auto snippet = SnippetFromField(fields[7]);
    if (!snippet.ok()) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, snippet.status().message()));
      continue;
    }

    auto [it, inserted] = group_index.try_emplace(*group_id, corpus.adgroups.size());
    if (inserted) {
      AdGroup group;
      group.id = *group_id;
      group.keyword_id = static_cast<int32_t>(*keyword_id);
      group.keyword = fields[2];
      corpus.adgroups.push_back(std::move(group));
    }
    Creative creative;
    creative.id = *creative_id;
    creative.impressions = *impressions;
    creative.clicks = *clicks;
    creative.true_ctr = *true_ctr;
    creative.snippet = std::move(*snippet);
    corpus.adgroups[it->second].creatives.push_back(std::move(creative));
    recovery.OnGoodRow();
  }
  return corpus;
}

Result<AdCorpus> LoadAdCorpus(const std::string& path) {
  return LoadAdCorpus(path, LoadOptions{});
}

Status SaveFeatureStats(const FeatureStatsDb& db, const std::string& path) {
  TraceSpan span("mb.artifact.write");
  std::ostringstream out;
  out << kStatsHeader << '\t' << FormatDouble(db.smoothing(), 6) << '\t' << db.min_count()
      << '\n';
  // ForEach sees both layers, so a pack-backed database round-trips to TSV.
  std::vector<std::pair<std::string_view, const FeatureStat*>> rows;
  rows.reserve(db.size());
  db.ForEach([&rows](std::string_view key, const FeatureStat& stat) {
    rows.emplace_back(key, &stat);
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, stat] : rows) {
    out << key << '\t' << stat->positive << '\t' << stat->total << '\n';
  }
  return WriteArtifactAtomic(path, out.str(), static_cast<int64_t>(rows.size()));
}

Result<FeatureStatsDb> LoadFeatureStats(const std::string& path, const LoadOptions& options,
                                        LoadReport* report) {
  MB_ASSIGN_OR_RETURN(const ArtifactContent content,
                      ReadArtifactReported(path, options, report));
  if (content.lines.empty()) return MalformedRow(path, 1, "missing stats header");
  // The header is exactly "<magic>\t<smoothing>\t<min_count>": a wrong magic
  // or a missing setting is an error, never a silent default.
  const auto header_fields = Split(content.lines[0], '\t');
  if (header_fields[0] != kStatsHeader) {
    return MalformedRow(path, 1, "missing stats header (want " + std::string(kStatsHeader) + ")");
  }
  if (header_fields.size() != 3) {
    return MalformedRow(path, 1, "stats header needs 3 fields (magic, smoothing, min_count)");
  }
  auto smoothing = ParseDouble(header_fields[1]);
  auto min_count = ParseInt(header_fields[2]);
  if (!smoothing.ok()) return MalformedRow(path, 1, smoothing.status().message());
  if (!min_count.ok()) return MalformedRow(path, 1, min_count.status().message());
  if (!FeatureStatsDb::ValidSmoothing(*smoothing)) {
    return MalformedRow(path, 1, "smoothing must be positive and finite, got '" +
                                     header_fields[1] + "'");
  }
  if (*min_count < 0) {
    return MalformedRow(path, 1, "min_count must not be negative, got '" + header_fields[2] + "'");
  }
  RowRecovery recovery(path, options, report);
  FeatureStatsDb db;
  db.set_smoothing(*smoothing);
  db.set_min_count(*min_count);
  for (size_t i = 1; i < content.lines.size(); ++i) {
    const std::string& line = content.lines[i];
    const int line_number = static_cast<int>(i) + 1;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 3) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, "expected 3 fields"));
      continue;
    }
    auto positive = ParseInt(fields[1]);
    auto total = ParseInt(fields[2]);
    if (!positive.ok()) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, positive.status().message()));
      continue;
    }
    if (!total.ok()) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, total.status().message()));
      continue;
    }
    if (*positive < 0 || *total < *positive) {
      MB_RETURN_IF_ERROR(recovery.OnBadRow(line_number, "invalid stat counts"));
      continue;
    }
    // SetStat would let the later row's counts replace the earlier's.
    if (db.Find(fields[0]) != nullptr) {
      MB_RETURN_IF_ERROR(
          recovery.OnBadRow(line_number, "duplicate stats key '" + fields[0] + "'"));
      continue;
    }
    db.SetStat(fields[0], *positive, *total);
    recovery.OnGoodRow();
  }
  db.BuildRewriteIndex();
  return db;
}

Result<FeatureStatsDb> LoadFeatureStats(const std::string& path) {
  return LoadFeatureStats(path, LoadOptions{});
}

namespace {

void SaveRegistry(std::ostream& out, const char* section, const FeatureRegistry& registry,
                  const std::vector<double>& trained_weights, int64_t* rows) {
  out << section << '\t' << registry.size() << '\n';
  for (FeatureId id = 0; id < registry.size(); ++id) {
    const double trained = id < trained_weights.size() ? trained_weights[id] : 0.0;
    out << registry.NameOf(id) << '\t' << FormatDouble(registry.InitialWeightOf(id), 9)
        << '\t' << FormatDouble(trained, 9) << '\n';
    ++*rows;
  }
}

Status LoadRegistry(const std::vector<std::string>& lines, const std::string& path,
                    const char* section, size_t* index, RowRecovery* recovery,
                    FeatureRegistry* registry, std::vector<double>* trained_weights) {
  if (*index >= lines.size()) {
    return MalformedRow(path, static_cast<int>(lines.size()), "truncated file");
  }
  const int section_line = static_cast<int>(*index) + 1;
  const auto header_fields = Split(lines[*index], '\t');
  ++*index;
  if (header_fields.size() != 2 || header_fields[0] != section) {
    return MalformedRow(path, section_line, std::string("expected section ") + section);
  }
  auto count = ParseInt(header_fields[1]);
  if (!count.ok()) return MalformedRow(path, section_line, count.status().message());
  for (int64_t i = 0; i < *count; ++i) {
    if (*index >= lines.size()) {
      return MalformedRow(path, static_cast<int>(lines.size()), "truncated section");
    }
    const int line_number = static_cast<int>(*index) + 1;
    const auto fields = Split(lines[*index], '\t');
    ++*index;
    if (fields.size() != 3) {
      MB_RETURN_IF_ERROR(recovery->OnBadRow(line_number, "expected 3 fields"));
      continue;
    }
    auto initial = ParseDouble(fields[1]);
    auto trained = ParseDouble(fields[2]);
    if (!initial.ok()) {
      MB_RETURN_IF_ERROR(recovery->OnBadRow(line_number, initial.status().message()));
      continue;
    }
    if (!trained.ok()) {
      MB_RETURN_IF_ERROR(recovery->OnBadRow(line_number, trained.status().message()));
      continue;
    }
    // Intern would hand a repeated name its first id while the weight below
    // still lands at the next index, shifting every later feature's weight.
    if (registry->Find(fields[0]) != kInvalidFeatureId) {
      MB_RETURN_IF_ERROR(
          recovery->OnBadRow(line_number, "duplicate feature name '" + fields[0] + "'"));
      continue;
    }
    registry->Intern(fields[0], *initial);
    trained_weights->push_back(*trained);
    recovery->OnGoodRow();
  }
  return Status::OK();
}

}  // namespace

Status SaveClassifier(const SnippetClassifierModel& model, const FeatureRegistry& t_registry,
                      const FeatureRegistry& p_registry, const std::string& path) {
  TraceSpan span("mb.artifact.write");
  if (model.t_weights.size() != t_registry.size() ||
      model.p_weights.size() != p_registry.size()) {
    return Status::InvalidArgument("SaveClassifier: weight/registry size mismatch");
  }
  std::ostringstream out;
  int64_t rows = 0;
  out << kModelHeader << '\t' << FormatDouble(model.bias, 9) << '\n';
  SaveRegistry(out, "T", t_registry, model.t_weights, &rows);
  SaveRegistry(out, "P", p_registry, model.p_weights, &rows);
  return WriteArtifactAtomic(path, out.str(), rows);
}

Result<SavedClassifier> LoadClassifier(const std::string& path, const LoadOptions& options,
                                       LoadReport* report) {
  MB_ASSIGN_OR_RETURN(const ArtifactContent content,
                      ReadArtifactReported(path, options, report));
  if (content.lines.empty() || !StartsWith(content.lines[0], kModelHeader)) {
    return MalformedRow(path, 1, "missing classifier header");
  }
  RowRecovery recovery(path, options, report);
  SavedClassifier saved;
  {
    const auto header_fields = Split(content.lines[0], '\t');
    if (header_fields.size() != 2) return MalformedRow(path, 1, "expected bias in header");
    auto bias = ParseDouble(header_fields[1]);
    if (!bias.ok()) return MalformedRow(path, 1, bias.status().message());
    saved.model.bias = *bias;
  }
  size_t index = 1;
  MB_RETURN_IF_ERROR(LoadRegistry(content.lines, path, "T", &index, &recovery,
                                  &saved.t_registry, &saved.model.t_weights));
  MB_RETURN_IF_ERROR(LoadRegistry(content.lines, path, "P", &index, &recovery,
                                  &saved.p_registry, &saved.model.p_weights));
  return saved;
}

Result<SavedClassifier> LoadClassifier(const std::string& path) {
  return LoadClassifier(path, LoadOptions{});
}

}  // namespace microbrowse
