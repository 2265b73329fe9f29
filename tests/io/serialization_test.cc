// Copyright 2026 The Microbrowse Authors

#include "io/serialization.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "clickmodels/simulator.h"
#include "clickmodels/pbm.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"

namespace microbrowse {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// --- AdCorpus round trip

TEST(AdCorpusIoTest, RoundTripPreservesEverything) {
  AdCorpusOptions options;
  options.num_adgroups = 40;
  options.seed = 3;
  auto generated = GenerateAdCorpus(options);
  ASSERT_TRUE(generated.ok());
  const std::string path = TempPath("corpus_roundtrip.tsv");
  ASSERT_TRUE(SaveAdCorpus(generated->corpus, path).ok());

  auto loaded = LoadAdCorpus(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->adgroups.size(), generated->corpus.adgroups.size());
  EXPECT_EQ(loaded->placement, generated->corpus.placement);
  for (size_t g = 0; g < loaded->adgroups.size(); ++g) {
    const AdGroup& a = generated->corpus.adgroups[g];
    const AdGroup& b = loaded->adgroups[g];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.keyword_id, b.keyword_id);
    EXPECT_EQ(a.keyword, b.keyword);
    ASSERT_EQ(a.creatives.size(), b.creatives.size());
    for (size_t c = 0; c < a.creatives.size(); ++c) {
      EXPECT_EQ(a.creatives[c].snippet, b.creatives[c].snippet);
      EXPECT_EQ(a.creatives[c].impressions, b.creatives[c].impressions);
      EXPECT_EQ(a.creatives[c].clicks, b.creatives[c].clicks);
      EXPECT_NEAR(a.creatives[c].true_ctr, b.creatives[c].true_ctr, 1e-7);
    }
  }
  std::remove(path.c_str());
}

TEST(AdCorpusIoTest, RhsPlacementSurvivesRoundTrip) {
  AdCorpusOptions options;
  options.num_adgroups = 5;
  options.placement = Placement::kRhs;
  auto generated = GenerateAdCorpus(options);
  ASSERT_TRUE(generated.ok());
  const std::string path = TempPath("corpus_rhs.tsv");
  ASSERT_TRUE(SaveAdCorpus(generated->corpus, path).ok());
  auto loaded = LoadAdCorpus(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->placement, Placement::kRhs);
  std::remove(path.c_str());
}

TEST(AdCorpusIoTest, PairExtractionAgreesAfterRoundTrip) {
  AdCorpusOptions options;
  options.num_adgroups = 60;
  auto generated = GenerateAdCorpus(options);
  ASSERT_TRUE(generated.ok());
  const std::string path = TempPath("corpus_pairs.tsv");
  ASSERT_TRUE(SaveAdCorpus(generated->corpus, path).ok());
  auto loaded = LoadAdCorpus(path);
  ASSERT_TRUE(loaded.ok());
  const PairCorpus before = ExtractSignificantPairs(generated->corpus, {});
  const PairCorpus after = ExtractSignificantPairs(*loaded, {});
  ASSERT_EQ(before.pairs.size(), after.pairs.size());
  for (size_t i = 0; i < before.pairs.size(); ++i) {
    EXPECT_EQ(before.pairs[i].r.snippet, after.pairs[i].r.snippet);
    EXPECT_NEAR(before.pairs[i].r.serve_weight, after.pairs[i].r.serve_weight, 1e-9);
  }
  std::remove(path.c_str());
}

TEST(AdCorpusIoTest, MissingFileFails) {
  EXPECT_EQ(LoadAdCorpus("/nonexistent/nope.tsv").status().code(), StatusCode::kIOError);
}

TEST(AdCorpusIoTest, MissingHeaderFails) {
  const std::string path = TempPath("corpus_noheader.tsv");
  WriteFile(path, "1\t2\tkw\t3\t100\t5\t0.05\ta | b | c\n");
  EXPECT_EQ(LoadAdCorpus(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(AdCorpusIoTest, MalformedRowReportsLineNumber) {
  const std::string path = TempPath("corpus_badrow.tsv");
  WriteFile(path, "#microbrowse-adcorpus-v1\ttop\n1\t2\tkw\tnot_an_int\t100\t5\t0.05\ta\n");
  const auto result = LoadAdCorpus(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(AdCorpusIoTest, ClicksAboveImpressionsRejected) {
  const std::string path = TempPath("corpus_badcounts.tsv");
  WriteFile(path, "#microbrowse-adcorpus-v1\ttop\n1\t2\tkw\t3\t10\t50\t0.05\ta | b | c\n");
  EXPECT_FALSE(LoadAdCorpus(path).ok());
  std::remove(path.c_str());
}

// --- ClickLog round trip

TEST(ClickLogIoTest, RoundTrip) {
  SerpSimulatorOptions options;
  options.num_queries = 5;
  options.docs_per_query = 6;
  options.positions = 4;
  options.num_sessions = 200;
  Rng rng(8);
  const SerpGroundTruth truth = MakeSerpGroundTruth(options, &rng);
  const PositionBasedModel model({0.9, 0.6, 0.4, 0.2}, truth.attraction);
  auto log = SimulateSerpLog(options, truth, model, &rng);
  ASSERT_TRUE(log.ok());

  const std::string path = TempPath("clicklog.tsv");
  ASSERT_TRUE(SaveClickLog(*log, path).ok());
  auto loaded = LoadClickLog(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->sessions.size(), log->sessions.size());
  EXPECT_EQ(loaded->max_positions, log->max_positions);
  EXPECT_EQ(loaded->num_queries, log->num_queries);
  for (size_t s = 0; s < loaded->sessions.size(); ++s) {
    EXPECT_EQ(loaded->sessions[s].query_id, log->sessions[s].query_id);
    ASSERT_EQ(loaded->sessions[s].results.size(), log->sessions[s].results.size());
    for (size_t i = 0; i < loaded->sessions[s].results.size(); ++i) {
      EXPECT_EQ(loaded->sessions[s].results[i].doc_id, log->sessions[s].results[i].doc_id);
      EXPECT_EQ(loaded->sessions[s].results[i].clicked, log->sessions[s].results[i].clicked);
    }
  }
  std::remove(path.c_str());
}

TEST(ClickLogIoTest, MalformedCellFails) {
  const std::string path = TempPath("clicklog_bad.tsv");
  WriteFile(path, "#microbrowse-clicklog-v1\n3\t5:2\n");
  EXPECT_FALSE(LoadClickLog(path).ok());
  std::remove(path.c_str());
}

// --- FeatureStatsDb round trip

TEST(StatsIoTest, RoundTripPreservesCountsAndSettings) {
  FeatureStatsDb db;
  db.set_smoothing(2.0);
  db.set_min_count(4);
  for (int i = 0; i < 7; ++i) db.AddObservation("t:cheap", +1);
  for (int i = 0; i < 3; ++i) db.AddObservation("t:cheap", -1);
  db.AddObservation("rw:a=>b", -1);

  const std::string path = TempPath("stats.tsv");
  ASSERT_TRUE(SaveFeatureStats(db, path).ok());
  auto loaded = LoadFeatureStats(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), db.size());
  EXPECT_DOUBLE_EQ(loaded->smoothing(), 2.0);
  EXPECT_EQ(loaded->min_count(), 4);
  const FeatureStat* stat = loaded->Find("t:cheap");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->positive, 7);
  EXPECT_EQ(stat->total, 10);
  EXPECT_DOUBLE_EQ(loaded->LogOdds("t:cheap"), db.LogOdds("t:cheap"));
  std::remove(path.c_str());
}

TEST(StatsIoTest, InvalidCountsRejected) {
  const std::string path = TempPath("stats_bad.tsv");
  WriteFile(path, "#microbrowse-stats-v1\t1.0\t0\nt:x\t5\t3\n");
  EXPECT_FALSE(LoadFeatureStats(path).ok());
  std::remove(path.c_str());
}

TEST(StatsIoTest, HeaderMissingSettingsIsTypedError) {
  // Neither the smoothing nor the min_count may silently default.
  const std::string path = TempPath("stats_short_header.tsv");
  for (const char* header : {"#microbrowse-stats-v1", "#microbrowse-stats-v1\t2.0",
                             "#microbrowse-stats-v1\t2.0\t4\textra"}) {
    WriteFile(path, std::string(header) + "\nt:x\t1\t2\n");
    auto loaded = LoadFeatureStats(path);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
    EXPECT_NE(loaded.status().message().find(":1:"), std::string::npos)
        << loaded.status().message();
  }
  std::remove(path.c_str());
}

TEST(StatsIoTest, HeaderMagicMustMatchExactly) {
  const std::string path = TempPath("stats_bad_magic.tsv");
  for (const char* magic : {"#microbrowse-stats-v10", "#microbrowse-stats-v1x", "#other"}) {
    WriteFile(path, std::string(magic) + "\t1.0\t0\nt:x\t1\t2\n");
    auto loaded = LoadFeatureStats(path);
    ASSERT_FALSE(loaded.ok()) << magic;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << magic;
  }
  std::remove(path.c_str());
}

// --- Classifier round trip

TEST(ClassifierIoTest, RoundTrip) {
  FeatureRegistry t_registry;
  t_registry.Intern("t:cheap", 0.4);
  t_registry.Intern("rw:a=>b", -0.2);
  FeatureRegistry p_registry;
  p_registry.Intern("p:1:0", 1.1);
  SnippetClassifierModel model;
  model.t_weights = {0.75, -0.5};
  model.p_weights = {1.3};
  model.bias = 0.01;

  const std::string path = TempPath("classifier.txt");
  ASSERT_TRUE(SaveClassifier(model, t_registry, p_registry, path).ok());
  auto loaded = LoadClassifier(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->model.t_weights, model.t_weights);
  EXPECT_EQ(loaded->model.p_weights, model.p_weights);
  EXPECT_DOUBLE_EQ(loaded->model.bias, model.bias);
  EXPECT_EQ(loaded->t_registry.size(), 2u);
  EXPECT_EQ(loaded->t_registry.NameOf(0), "t:cheap");
  EXPECT_DOUBLE_EQ(loaded->t_registry.InitialWeightOf(0), 0.4);
  EXPECT_EQ(loaded->p_registry.NameOf(0), "p:1:0");
  std::remove(path.c_str());
}

TEST(ClassifierIoTest, SizeMismatchRejectedOnSave) {
  FeatureRegistry t_registry;
  t_registry.Intern("t:x", 0.0);
  FeatureRegistry p_registry;
  SnippetClassifierModel model;  // Empty weights: mismatch with t_registry.
  EXPECT_EQ(SaveClassifier(model, t_registry, p_registry, TempPath("never.txt")).code(),
            StatusCode::kInvalidArgument);
}

TEST(ClassifierIoTest, TruncatedFileFails) {
  const std::string path = TempPath("classifier_trunc.txt");
  WriteFile(path, "#microbrowse-classifier-v1\t0.0\nT\t2\nt:x\t0.1\t0.2\n");
  EXPECT_FALSE(LoadClassifier(path).ok());
  std::remove(path.c_str());
}

/// A v2 model artifact (valid checksum footer) whose T section repeats
/// "t:a" on line 4. Unique names carry trained weights 1 and 3.
std::string WriteModelWithDuplicateName(const std::string& name) {
  const std::string path = TempPath(name);
  const std::string payload =
      "#microbrowse-classifier-v1\t0.5\n"
      "T\t3\n"
      "t:a\t0.1\t1\n"
      "t:a\t0.2\t2\n"
      "t:b\t0.3\t3\n"
      "P\t0\n";
  EXPECT_TRUE(WriteArtifactAtomic(path, payload, /*rows=*/3).ok());
  return path;
}

TEST(ClassifierIoTest, DuplicateFeatureNameFailsStrictLoad) {
  const std::string path = WriteModelWithDuplicateName("classifier_dup_strict.txt");
  const auto loaded = LoadClassifier(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":4:"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("duplicate feature name"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ClassifierIoTest, RecoveringLoadSkipsDuplicateNameWithWeightsAligned) {
  const std::string path = WriteModelWithDuplicateName("classifier_dup_salvage.txt");
  LoadOptions salvage;
  salvage.recovery = LoadOptions::Recovery::kSkipAndLog;
  LoadReport report;
  const auto loaded = LoadClassifier(path, salvage, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->t_registry.size(), 2u);
  EXPECT_EQ(loaded->model.t_weights, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(loaded->t_registry.Find("t:a"), 0u);
  EXPECT_EQ(loaded->t_registry.Find("t:b"), 1u);
  EXPECT_DOUBLE_EQ(loaded->t_registry.InitialWeightOf(0), 0.1);
  EXPECT_EQ(report.rows_kept, 2);
  EXPECT_EQ(report.rows_skipped, 1);
  EXPECT_EQ(report.first_error_line, 4);
  std::remove(path.c_str());
}

// --- Artifact format v2: checksums and row-level recovery

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

AdCorpus SmallCorpus() {
  AdCorpusOptions options;
  options.num_adgroups = 10;
  options.seed = 21;
  auto generated = GenerateAdCorpus(options);
  EXPECT_TRUE(generated.ok());
  return generated->corpus;
}

TEST(ArtifactV2Test, SavedArtifactsCarryVerifiedChecksumFooter) {
  const std::string path = TempPath("v2_footer.tsv");
  ASSERT_TRUE(SaveAdCorpus(SmallCorpus(), path).ok());
  EXPECT_NE(ReadWholeFile(path).find("#checksum "), std::string::npos);

  LoadReport report;
  ASSERT_TRUE(LoadAdCorpus(path, LoadOptions{}, &report).ok());
  EXPECT_TRUE(report.checksum_present);
  EXPECT_TRUE(report.checksum_ok);
  EXPECT_GT(report.rows_kept, 0);
  EXPECT_EQ(report.rows_skipped, 0);
  std::remove(path.c_str());
}

TEST(ArtifactV2Test, CorruptedPayloadFailsStrictButSalvagesInSkipAndLog) {
  const std::string path = TempPath("v2_corrupt.tsv");
  ASSERT_TRUE(SaveAdCorpus(SmallCorpus(), path).ok());
  // Flip a letter inside the first row's keyword string: every row still
  // parses, but the payload no longer matches the footer hash.
  std::string data = ReadWholeFile(path);
  size_t pos = data.find('\n') + 1;
  while (pos < data.size() && !std::isalpha(static_cast<unsigned char>(data[pos]))) ++pos;
  ASSERT_LT(pos, data.size());
  data[pos] = data[pos] == 'q' ? 'x' : 'q';
  WriteFile(path, data);

  const auto strict = LoadAdCorpus(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kIOError);
  EXPECT_NE(strict.status().message().find("checksum mismatch"), std::string::npos);

  LoadOptions salvage;
  salvage.recovery = LoadOptions::Recovery::kSkipAndLog;
  LoadReport report;
  ASSERT_TRUE(LoadAdCorpus(path, salvage, &report).ok());
  EXPECT_TRUE(report.checksum_present);
  EXPECT_FALSE(report.checksum_ok);
  EXPECT_GT(report.rows_kept, 0);
  std::remove(path.c_str());
}

TEST(ArtifactV2Test, TruncatedArtifactFailsStrictLoad) {
  const std::string path = TempPath("v2_trunc.tsv");
  ASSERT_TRUE(SaveAdCorpus(SmallCorpus(), path).ok());
  // Drop one data row but keep the footer: the hash no longer matches.
  std::string data = ReadWholeFile(path);
  const size_t footer = data.find("#checksum ");
  ASSERT_NE(footer, std::string::npos);
  const size_t last_row = data.rfind('\n', footer - 2);
  ASSERT_NE(last_row, std::string::npos);
  WriteFile(path, data.substr(0, last_row + 1) + data.substr(footer));

  const auto result = LoadAdCorpus(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(ArtifactV2Test, LegacyV1FileWithoutFooterStillLoads) {
  const std::string path = TempPath("v2_legacy.tsv");
  WriteFile(path,
            "#microbrowse-adcorpus-v1\ttop\n"
            "1\t2\tkw one\t3\t100\t5\t0.05\ta | b | c\n");
  LoadReport report;
  const auto result = LoadAdCorpus(path, LoadOptions{}, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(report.checksum_present);
  EXPECT_TRUE(report.checksum_ok);
  EXPECT_EQ(report.rows_kept, 1);
  std::remove(path.c_str());
}

TEST(ArtifactV2Test, SkipAndLogSkipsMalformedRowsWithAccurateReport) {
  const std::string path = TempPath("v2_badrows.tsv");
  WriteFile(path,
            "#microbrowse-adcorpus-v1\ttop\n"
            "1\t2\tkw one\t3\t100\t5\t0.05\ta | b | c\n"
            "1\t3\tkw two\tnot_an_int\t100\t5\t0.05\ta\n"
            "2\t4\tkw three\t3\t200\t9\t0.04\td | e\n");

  // Strict: the malformed row (line 3) fails the whole load.
  const auto strict = LoadAdCorpus(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find(":3:"), std::string::npos);

  LoadOptions salvage;
  salvage.recovery = LoadOptions::Recovery::kSkipAndLog;
  LoadReport report;
  const auto result = LoadAdCorpus(path, salvage, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.rows_kept, 2);
  EXPECT_EQ(report.rows_skipped, 1);
  EXPECT_EQ(report.first_error_line, 3);
  EXPECT_FALSE(report.first_error.empty());
  size_t creatives = 0;
  for (const auto& adgroup : result->adgroups) creatives += adgroup.creatives.size();
  EXPECT_EQ(creatives, 2u);
  std::remove(path.c_str());
}

TEST(ArtifactV2Test, StatsAndClassifierFootersRoundTrip) {
  FeatureStatsDb db;
  db.SetStat("t:alpha", 3, 10);
  db.SetStat("p:0:1", 1, 4);
  const std::string stats_path = TempPath("v2_stats.tsv");
  ASSERT_TRUE(SaveFeatureStats(db, stats_path).ok());
  LoadReport stats_report;
  ASSERT_TRUE(LoadFeatureStats(stats_path, LoadOptions{}, &stats_report).ok());
  EXPECT_TRUE(stats_report.checksum_present);
  EXPECT_TRUE(stats_report.checksum_ok);
  EXPECT_EQ(stats_report.rows_kept, 2);
  std::remove(stats_path.c_str());

  FeatureRegistry t_registry;
  t_registry.Intern("t:x", 0.0);
  SnippetClassifierModel model;
  model.t_weights = {0.5};
  const std::string model_path = TempPath("v2_model.tsv");
  ASSERT_TRUE(SaveClassifier(model, t_registry, FeatureRegistry{}, model_path).ok());
  LoadReport model_report;
  ASSERT_TRUE(LoadClassifier(model_path, LoadOptions{}, &model_report).ok());
  EXPECT_TRUE(model_report.checksum_present);
  EXPECT_TRUE(model_report.checksum_ok);
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace microbrowse
