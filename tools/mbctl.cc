// Copyright 2026 The Microbrowse Authors
//
// mbctl — command-line front end for the microbrowse library.
//
//   mbctl generate  --out corpus.tsv [--adgroups N] [--seed S] [--rhs]
//   mbctl stats     --corpus corpus.tsv --out stats.tsv
//   mbctl mine      --stats stats.tsv [--prefix rw:] [--top N] [--min-count N]
//   mbctl train     --corpus corpus.tsv --out model.txt [--model M1..M6]
//                   [--train-threads N]
//   mbctl evaluate  --corpus corpus.tsv [--model M1..M6] [--folds K]
//                   [--threads N] [--train-threads N]
//   mbctl predict   --model model.txt --stats stats.tsv
//                   --a "line1|line2|line3" --b "line1|line2|line3"
//   mbctl predict   --model model.txt --stats stats.tsv
//                   --pairs pairs.tsv [--out margins.tsv]
//   mbctl predict   --server host:port {--a ... --b ... | --pairs pairs.tsv}
//   mbctl pack      {--stats stats.tsv | --model model.txt} --out artifact.mbp
//   mbctl pack-inspect --pack artifact.mbp
//
// All artefacts are the TSV/text formats of io/serialization.h, so every
// intermediate is inspectable with standard shell tools. Fault injection is
// available in every command via the MB_FAILPOINTS environment variable
// (see common/failpoint.h). Commands that load artifacts accept
// --recovery strict|skip_and_log; in salvage mode (and whenever a load is
// not fully clean) the LoadReport is surfaced on stderr instead of
// silently proceeding.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/trace.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "eval/experiments.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/pipeline.h"
#include "serve/client.h"
#include "serve/protocol.h"

#include "mbctl_flags.h"

using namespace microbrowse;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// A "line|line|..." snippet, refused as mbserved refuses it (a line over
/// kMaxLineTokens tokens), so local and served predictions agree.
Result<Snippet> ParseSnippetFlag(const std::string& field) {
  Snippet snippet;
  MB_RETURN_IF_ERROR(Snippet::Parse(field, '|', &snippet));
  return snippet;
}

/// --recovery flag -> LoadOptions (strict is the default, matching the
/// one-argument loaders).
Result<LoadOptions> RecoveryOptions(const Flags& flags) {
  const std::string mode = flags.Get("--recovery", "strict");
  LoadOptions options;
  if (mode == "strict") {
    options.recovery = LoadOptions::Recovery::kStrict;
  } else if (mode == "skip_and_log") {
    options.recovery = LoadOptions::Recovery::kSkipAndLog;
  } else {
    return Status::InvalidArgument("--recovery expects strict|skip_and_log, got '" +
                                   mode + "'");
  }
  return options;
}

/// Surfaces a LoadReport on stderr when the load was anything but fully
/// clean: salvage drops, checksum trouble, or a missing v2 footer.
void PrintLoadReport(const std::string& path, const LoadReport& report) {
  if (!report.checksum_present) {
    std::fprintf(stderr, "warning: %s: no checksum footer (v1 artifact?); loaded %lld rows unverified\n",
                 path.c_str(), static_cast<long long>(report.rows_kept));
  } else if (!report.checksum_ok) {
    std::fprintf(stderr, "warning: %s: checksum mismatch (artifact damaged)\n",
                 path.c_str());
  }
  if (report.rows_skipped > 0) {
    std::fprintf(stderr,
                 "warning: %s: kept %lld rows, skipped %lld (first error at line %d: %s)\n",
                 path.c_str(), static_cast<long long>(report.rows_kept),
                 static_cast<long long>(report.rows_skipped), report.first_error_line,
                 report.first_error.c_str());
  }
}

/// Loads a classifier from a TSV artifact or an mbpack (sniffed); the
/// LoadReport only applies to the TSV path — packs are all-or-nothing.
Result<SavedClassifier> LoadClassifierSniffed(const std::string& path,
                                              const LoadOptions& options,
                                              LoadReport* report) {
  MB_ASSIGN_OR_RETURN(const bool is_pack, IsPackFile(path));
  if (is_pack) {
    // The pack open verified its checksums; report a clean load so
    // PrintLoadReport stays silent.
    report->checksum_present = true;
    return LoadClassifierPack(path);
  }
  return LoadClassifier(path, options, report);
}

/// Loads a stats database from a TSV artifact or an mbpack (sniffed).
Result<FeatureStatsDb> LoadFeatureStatsSniffed(const std::string& path,
                                               const LoadOptions& options,
                                               LoadReport* report) {
  MB_ASSIGN_OR_RETURN(const bool is_pack, IsPackFile(path));
  if (is_pack) {
    report->checksum_present = true;
    return LoadStatsPack(path);
  }
  return LoadFeatureStats(path, options, report);
}

/// Loads the ad corpus at `path` and extracts its significant pairs. The
/// pairs hold their own copies of the snippets, so the corpus is freed
/// here, before the caller's statistics build.
Result<PairCorpus> LoadSignificantPairs(const std::string& path, const LoadOptions& options) {
  LoadReport report;
  MB_ASSIGN_OR_RETURN(const AdCorpus corpus, LoadAdCorpus(path, options, &report));
  PrintLoadReport(path, report);
  return ExtractSignificantPairs(corpus, {});
}

/// One A/B row of a --pairs TSV: the two snippets plus the computed margin.
struct PairRow {
  std::string a;
  std::string b;
};

/// Reads a --pairs TSV ("a<TAB>b" per row; '#' comments and blank lines
/// skipped).
Result<std::vector<PairRow>> LoadPairRows(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open pairs file: " + path);
  std::vector<PairRow> rows;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> cells = Split(line, '\t');
    if (cells.size() < 2 || cells[0].empty() || cells[1].empty()) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: expected 'a<TAB>b' snippets", path.c_str(), line_number));
    }
    rows.push_back(PairRow{cells[0], cells[1]});
  }
  return rows;
}

/// Writes the batch-prediction output TSV: a, b, margin, winner.
Status WriteMarginRows(const std::vector<PairRow>& rows, const std::vector<double>& margins,
                       const std::string& path) {
  std::ostringstream out;
  out << "#a\tb\tmargin\twinner\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << rows[i].a << '\t' << rows[i].b << '\t' << StrFormat("%+.6f", margins[i])
        << '\t' << (margins[i] >= 0 ? 'a' : 'b') << '\n';
  }
  return WriteArtifactAtomic(path, out.str(), static_cast<int64_t>(rows.size()));
}

/// Builds the resilient serve client (serve/client.h) from predict's
/// --server, --retries and --deadline-ms flags. Transient failures —
/// connect refusal, "overloaded" sheds, "draining" refusals — are retried
/// with jittered backoff inside the client, so a rolling mbserved restart
/// looks like a brief stall, not a failed batch job.
Result<std::unique_ptr<serve::ResilientClient>> MakeServeClient(const Flags& flags) {
  auto options = serve::ResilientClient::ParseTarget(flags.Get("--server"));
  if (!options.ok()) {
    return Status::InvalidArgument("--server " + options.status().message());
  }
  auto retries = flags.GetInt("--retries", 4, /*min=*/0, /*max=*/100);
  if (!retries.ok()) return retries.status();
  options->retry.max_attempts = static_cast<int>(*retries) + 1;
  auto deadline_ms = flags.GetInt("--deadline-ms", 0, /*min=*/0);
  if (!deadline_ms.ok()) return deadline_ms.status();
  options->deadline_ms = *deadline_ms;
  return std::make_unique<serve::ResilientClient>(*options);
}

int CmdGenerate(const Flags& flags) {
  AdCorpusOptions options;
  auto adgroups = flags.GetInt("--adgroups", 2000, /*min=*/1, /*max=*/10'000'000);
  if (!adgroups.ok()) return Fail(adgroups.status());
  auto seed = flags.GetInt("--seed", 42, /*min=*/0);
  if (!seed.ok()) return Fail(seed.status());
  options.num_adgroups = static_cast<int>(*adgroups);
  options.seed = static_cast<uint64_t>(*seed);
  if (flags.Has("--rhs")) options.placement = Placement::kRhs;
  const std::string out = flags.Get("--out", "corpus.tsv");
  auto generated = GenerateAdCorpus(options);
  if (!generated.ok()) return Fail(generated.status());
  const Status status = SaveAdCorpus(generated->corpus, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu adgroups (%zu creatives) to %s\n", generated->corpus.adgroups.size(),
              generated->corpus.num_creatives(), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto load_options = RecoveryOptions(flags);
  if (!load_options.ok()) return Fail(load_options.status());
  const std::string corpus_path = flags.Get("--corpus", "corpus.tsv");
  const std::string out = flags.Get("--out", "stats.tsv");
  const auto pairs = LoadSignificantPairs(corpus_path, *load_options);
  if (!pairs.ok()) return Fail(pairs.status());
  std::printf("extracted %zu significant pairs\n", pairs->pairs.size());
  const FeatureStatsDb db = BuildFeatureStats(*pairs, {});
  const Status status = SaveFeatureStats(db, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu feature statistics to %s\n", db.size(), out.c_str());
  return 0;
}

int CmdMine(const Flags& flags) {
  auto load_options = RecoveryOptions(flags);
  if (!load_options.ok()) return Fail(load_options.status());
  const std::string stats_path = flags.Get("--stats", "stats.tsv");
  LoadReport report;
  auto db = LoadFeatureStatsSniffed(stats_path, *load_options, &report);
  if (!db.ok()) return Fail(db.status());
  PrintLoadReport(stats_path, report);
  const std::string prefix = flags.Get("--prefix", "rw:");
  auto min_count_flag = flags.GetInt("--min-count", 10, /*min=*/0);
  if (!min_count_flag.ok()) return Fail(min_count_flag.status());
  auto top_flag = flags.GetInt("--top", 20, /*min=*/0);
  if (!top_flag.ok()) return Fail(top_flag.status());
  const int64_t min_count = *min_count_flag;
  const size_t top = static_cast<size_t>(*top_flag);

  std::vector<std::pair<std::string, FeatureStat>> rows;
  db->ForEach([&](std::string_view key, const FeatureStat& stat) {
    if (StartsWith(key, prefix) && stat.total >= min_count) rows.emplace_back(key, stat);
  });
  // Equally decisive rows fall back to key order, so the listing does not
  // depend on the database's storage order.
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    const double a_decisive = std::fabs(a.second.SmoothedP() - 0.5);
    const double b_decisive = std::fabs(b.second.SmoothedP() - 0.5);
    if (a_decisive != b_decisive) return a_decisive > b_decisive;
    return a.first < b.first;
  });
  if (rows.size() > top) rows.resize(top);
  std::printf("top %zu '%s' features by decisiveness (n >= %lld):\n", rows.size(),
              prefix.c_str(), static_cast<long long>(min_count));
  for (const auto& [key, stat] : rows) {
    std::printf("  p(+)=%.3f n=%6lld  %s\n", stat.SmoothedP(),
                static_cast<long long>(stat.total), key.c_str());
  }
  return 0;
}

int CmdTrain(const Flags& flags) {
  auto load_options = RecoveryOptions(flags);
  if (!load_options.ok()) return Fail(load_options.status());
  const std::string corpus_path = flags.Get("--corpus", "corpus.tsv");
  auto train_threads = flags.GetInt("--train-threads", 1, /*min=*/1, /*max=*/256);
  if (!train_threads.ok()) return Fail(train_threads.status());
  auto named = ClassifierConfig::ByName(flags.Get("--model", "M6"));
  if (!named.ok()) return Fail(named.status());
  ClassifierConfig config = std::move(named).value();
  auto seed = flags.GetInt("--seed", 99, /*min=*/0);
  if (!seed.ok()) return Fail(seed.status());
  // Results are bitwise identical for any thread count (DESIGN.md §11).
  BuildStatsOptions stats_options;
  stats_options.num_threads = static_cast<int>(*train_threads);

  const auto pairs = LoadSignificantPairs(corpus_path, *load_options);
  if (!pairs.ok()) return Fail(pairs.status());
  const FeatureStatsDb db = BuildFeatureStats(*pairs, stats_options);
  const CoupledDataset dataset =
      BuildClassifierDataset(*pairs, db, config, static_cast<uint64_t>(*seed));
  auto model = TrainSnippetClassifier(dataset, config);
  if (!model.ok()) return Fail(model.status());
  const std::string out = flags.Get("--out", "model.txt");
  const Status status =
      SaveClassifier(*model, dataset.t_registry, dataset.p_registry, out);
  if (!status.ok()) return Fail(status);
  std::printf("trained %s on %zu pairs; wrote %s (%zu T features, %zu P features)\n",
              config.name.c_str(), pairs->pairs.size(), out.c_str(),
              dataset.t_registry.size(), dataset.p_registry.size());
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  auto load_options = RecoveryOptions(flags);
  if (!load_options.ok()) return Fail(load_options.status());
  const std::string corpus_path = flags.Get("--corpus", "corpus.tsv");
  const auto pairs = LoadSignificantPairs(corpus_path, *load_options);
  if (!pairs.ok()) return Fail(pairs.status());
  PipelineOptions pipeline;
  auto folds = flags.GetInt("--folds", 5, /*min=*/2, /*max=*/1000);
  if (!folds.ok()) return Fail(folds.status());
  auto seed = flags.GetInt("--seed", 99, /*min=*/0);
  if (!seed.ok()) return Fail(seed.status());
  auto threads = flags.GetInt("--threads", 1, /*min=*/1, /*max=*/256);
  if (!threads.ok()) return Fail(threads.status());
  auto train_threads = flags.GetInt("--train-threads", 1, /*min=*/1, /*max=*/256);
  if (!train_threads.ok()) return Fail(train_threads.status());
  pipeline.folds = static_cast<int>(*folds);
  pipeline.seed = static_cast<uint64_t>(*seed);
  pipeline.num_threads = static_cast<int>(*threads);
  pipeline.train_threads = static_cast<int>(*train_threads);
  const std::string model_flag = flags.Get("--model", "all");
  std::vector<ClassifierConfig> configs;
  if (model_flag == "all") {
    configs = ClassifierConfig::AllPaperModels();
  } else {
    auto config = ClassifierConfig::ByName(model_flag);
    if (!config.ok()) return Fail(config.status());
    configs.push_back(std::move(config).value());
  }
  for (const auto& config : configs) {
    auto report = RunPairClassificationCv(*pairs, config, pipeline);
    if (!report.ok()) return Fail(report.status());
    std::printf("%s: recall=%.3f precision=%.3f F=%.3f accuracy=%.3f auc=%.3f\n",
                config.name.c_str(), report->metrics.recall(), report->metrics.precision(),
                report->metrics.f1(), report->metrics.accuracy(), report->auc);
  }
  return 0;
}

/// mbctl pack: converts a TSV artifact (exactly one of --stats / --model)
/// into the equivalent mbpack container.
int CmdPack(const Flags& flags) {
  const bool has_stats = flags.Has("--stats");
  const bool has_model = flags.Has("--model");
  if (has_stats == has_model) {
    std::fprintf(stderr, "pack needs exactly one of --stats stats.tsv / --model model.txt\n");
    return 1;
  }
  auto load_options = RecoveryOptions(flags);
  if (!load_options.ok()) return Fail(load_options.status());
  if (has_stats) {
    const std::string in = flags.Get("--stats");
    const std::string out = flags.Get("--out", "stats.mbp");
    LoadReport report;
    auto db = LoadFeatureStats(in, *load_options, &report);
    if (!db.ok()) return Fail(db.status());
    PrintLoadReport(in, report);
    if (const Status status = SaveStatsPack(*db, out); !status.ok()) return Fail(status);
    std::printf("packed %zu feature statistics: %s -> %s\n", db->size(), in.c_str(),
                out.c_str());
    return 0;
  }
  const std::string in = flags.Get("--model");
  const std::string out = flags.Get("--out", "model.mbp");
  LoadReport report;
  auto saved = LoadClassifier(in, *load_options, &report);
  if (!saved.ok()) return Fail(saved.status());
  PrintLoadReport(in, report);
  if (const Status status =
          SaveClassifierPack(saved->model, saved->t_registry, saved->p_registry, out);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("packed classifier (%zu T features, %zu P features): %s -> %s\n",
              saved->t_registry.size(), saved->p_registry.size(), in.c_str(), out.c_str());
  return 0;
}

/// mbctl pack-inspect: validates a pack exactly as hard as the serving
/// open path and dumps header, section table and artifact metadata.
int CmdPackInspect(const Flags& flags) {
  const std::string path = flags.Get("--pack");
  if (path.empty()) {
    std::fprintf(stderr, "pack-inspect needs --pack file.mbp\n");
    return 1;
  }
  auto description = DescribePack(path);
  if (!description.ok()) return Fail(description.status());
  std::fputs(description->c_str(), stdout);
  return 0;
}

/// Emits batch margins: to --out as a checksummed TSV artifact, otherwise
/// to stdout.
int EmitMargins(const std::vector<PairRow>& rows, const std::vector<double>& margins,
                const Flags& flags) {
  const std::string out = flags.Get("--out");
  if (out.empty()) {
    std::printf("#a\tb\tmargin\twinner\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::printf("%s\t%s\t%+.6f\t%c\n", rows[i].a.c_str(), rows[i].b.c_str(), margins[i],
                  margins[i] >= 0 ? 'a' : 'b');
    }
    return 0;
  }
  if (const Status status = WriteMarginRows(rows, margins, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %zu margins to %s\n", rows.size(), out.c_str());
  return 0;
}

int CmdPredict(const Flags& flags) {
  const bool batch = flags.Has("--pairs");
  if (!batch && (!flags.Has("--a") || !flags.Has("--b"))) {
    std::fprintf(stderr,
                 "predict needs --a and --b snippets (\"line1|line2|line3\") or --pairs\n");
    return 1;
  }

  // --server mode: route scoring through a running mbserved instead of
  // loading the bundle locally. The same --pairs input scored both ways is
  // the serve-vs-batch parity check.
  if (flags.Has("--server")) {
    auto client = MakeServeClient(flags);
    if (!client.ok()) return Fail(client.status());
    if (batch) {
      auto rows = LoadPairRows(flags.Get("--pairs"));
      if (!rows.ok()) return Fail(rows.status());
      std::vector<double> margins;
      margins.reserve(rows->size());
      for (const PairRow& row : *rows) {
        auto margin = (*client)->ScorePair(row.a, row.b);
        if (!margin.ok()) return Fail(margin.status());
        margins.push_back(*margin);
      }
      return EmitMargins(*rows, margins, flags);
    }
    auto margin = (*client)->ScorePair(flags.Get("--a"), flags.Get("--b"));
    if (!margin.ok()) return Fail(margin.status());
    std::printf("A: %s\nB: %s\nmargin(A over B) = %+.4f  ->  %s\n",
                flags.Get("--a").c_str(), flags.Get("--b").c_str(), *margin,
                *margin >= 0 ? "A predicted to win" : "B predicted to win");
    return 0;
  }

  auto named = ClassifierConfig::ByName(flags.Get("--model-type", "M6"));
  if (!named.ok()) return Fail(named.status());
  const ClassifierConfig config = std::move(named).value();
  auto load_options = RecoveryOptions(flags);
  if (!load_options.ok()) return Fail(load_options.status());
  const std::string model_path = flags.Get("--model", "model.txt");
  LoadReport model_report;
  auto saved = LoadClassifierSniffed(model_path, *load_options, &model_report);
  if (!saved.ok()) return Fail(saved.status());
  PrintLoadReport(model_path, model_report);
  const std::string stats_path = flags.Get("--stats", "stats.tsv");
  LoadReport stats_report;
  auto db = LoadFeatureStatsSniffed(stats_path, *load_options, &stats_report);
  if (!db.ok()) return Fail(db.status());
  PrintLoadReport(stats_path, stats_report);

  if (batch) {
    auto rows = LoadPairRows(flags.Get("--pairs"));
    if (!rows.ok()) return Fail(rows.status());
    std::vector<double> margins;
    margins.reserve(rows->size());
    for (const PairRow& row : *rows) {
      auto a = ParseSnippetFlag(row.a);
      if (!a.ok()) return Fail(a.status());
      auto b = ParseSnippetFlag(row.b);
      if (!b.ok()) return Fail(b.status());
      margins.push_back(PredictPairMargin(*a, *b, *db, config, saved->model, saved->t_registry,
                                          saved->p_registry));
    }
    return EmitMargins(*rows, margins, flags);
  }

  auto a = ParseSnippetFlag(flags.Get("--a"));
  if (!a.ok()) return Fail(a.status());
  auto b = ParseSnippetFlag(flags.Get("--b"));
  if (!b.ok()) return Fail(b.status());
  const double margin = PredictPairMargin(*a, *b, *db, config, saved->model,
                                          saved->t_registry, saved->p_registry);
  std::printf("A: %s\nB: %s\nmargin(A over B) = %+.4f  ->  %s\n", a->ToString().c_str(),
              b->ToString().c_str(), margin,
              margin >= 0 ? "A predicted to win" : "B predicted to win");
  return 0;
}

void PrintUsage() {
  std::printf(
      "mbctl — microbrowse command line\n"
      "  mbctl generate --out corpus.tsv [--adgroups N] [--seed S] [--rhs]\n"
      "  mbctl stats    --corpus corpus.tsv --out stats.tsv\n"
      "  mbctl mine     --stats stats.tsv [--prefix rw:|t:|pp:] [--top N] [--min-count N]\n"
      "  mbctl train    --corpus corpus.tsv --out model.txt [--model M1..M6]\n"
      "                 [--train-threads N]\n"
      "  mbctl evaluate --corpus corpus.tsv [--model M1..M6|all] [--folds K]\n"
      "                 [--threads N] [--train-threads N]\n"
      "  mbctl predict  --model model.txt --stats stats.tsv --a \"l1|l2|l3\" --b \"l1|l2|l3\"\n"
      "  mbctl predict  --model model.txt --stats stats.tsv --pairs pairs.tsv [--out m.tsv]\n"
      "  mbctl predict  --server host:port {--a ... --b ... | --pairs pairs.tsv}\n"
      "                 [--retries N] [--deadline-ms N]\n"
      "  mbctl pack     {--stats stats.tsv | --model model.txt} --out artifact.mbp\n"
      "  mbctl pack-inspect --pack artifact.mbp\n"
      "packs: predict --model/--stats and mbserved bundle paths accept TSV\n"
      "artifacts and mbpack containers interchangeably (magic-byte sniff)\n"
      "recovery: loading commands accept --recovery strict|skip_and_log\n"
      "tracing: every command accepts --trace-out trace.json (common/trace.h)\n"
      "fault injection: MB_FAILPOINTS=name=spec,... (see common/failpoint.h)\n");
}

/// Per-command flag declarations; anything else is rejected. Every command
/// accepts --trace-out=FILE (handled in main) so any stage can be traced.
Result<Flags> ParseCommandFlags(const std::string& command, int argc, char** argv) {
  if (command == "generate") {
    return Flags::Parse(argc, argv, 2,
                        {"--out", "--adgroups", "--seed", "--trace-out"},
                        {"--rhs"});
  }
  if (command == "stats") {
    return Flags::Parse(argc, argv, 2, {"--corpus", "--out", "--recovery", "--trace-out"},
                        {});
  }
  if (command == "mine") {
    return Flags::Parse(
        argc, argv, 2,
        {"--stats", "--prefix", "--top", "--min-count", "--recovery", "--trace-out"}, {});
  }
  if (command == "train") {
    return Flags::Parse(argc, argv, 2,
                        {"--corpus", "--out", "--model", "--seed", "--train-threads",
                         "--recovery", "--trace-out"},
                        {});
  }
  if (command == "evaluate") {
    return Flags::Parse(argc, argv, 2,
                        {"--corpus", "--model", "--folds", "--seed", "--threads",
                         "--train-threads", "--recovery", "--trace-out"},
                        {});
  }
  if (command == "predict") {
    return Flags::Parse(argc, argv, 2,
                        {"--model", "--stats", "--a", "--b", "--model-type", "--pairs",
                         "--out", "--server", "--retries", "--deadline-ms", "--recovery",
                         "--trace-out"},
                        {});
  }
  if (command == "pack") {
    return Flags::Parse(argc, argv, 2,
                        {"--stats", "--model", "--out", "--recovery", "--trace-out"}, {});
  }
  if (command == "pack-inspect") {
    return Flags::Parse(argc, argv, 2, {"--pack", "--trace-out"}, {});
  }
  return Status::InvalidArgument("unknown command '" + command + "'");
}

int RunCommand(const std::string& command, const Flags& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "mine") return CmdMine(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "pack") return CmdPack(flags);
  if (command == "pack-inspect") return CmdPackInspect(flags);
  return CmdPredict(flags);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  auto flags = ParseCommandFlags(command, argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    PrintUsage();
    return 1;
  }
  const std::string trace_out = flags->Get("--trace-out");
  if (!trace_out.empty()) trace::Enable();
  const int exit_code = RunCommand(command, *flags);
  if (!trace_out.empty()) {
    trace::Disable();
    if (const Status status = trace::WriteJson(trace_out); !status.ok()) {
      std::fprintf(stderr, "warning: failed to write trace: %s\n",
                   status.ToString().c_str());
    } else {
      std::fprintf(stderr, "wrote %zu trace spans to %s\n", trace::CollectedSpanCount(),
                   trace_out.c_str());
    }
  }
  return exit_code;
}
