// Copyright 2026 The Microbrowse Authors

#include "io/serialization.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

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

TEST(TokenInvariantTest, LoadedSnippetTokensNeverContainSpaces) {
  // Runs of spaces and other whitespace around and between tokens split
  // them; no token of a loaded snippet keeps a space.
  const std::string path = TempPath("corpus_whitespace.tsv");
  WriteFile(path,
            "#microbrowse-adcorpus-v1\ttop\n"
            "1\t2\tkw\t3\t100\t5\t0.05\t  a  b\v c | \f d\re  |x\n"
            "1\t2\tkw\t4\t100\t9\t0.05\t\x01 \x1f\x02  y|  |z   \n");
  auto loaded = LoadAdCorpus(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->adgroups.size(), 1u);
  ASSERT_EQ(loaded->adgroups[0].creatives.size(), 2u);
  EXPECT_EQ(loaded->adgroups[0].creatives[0].snippet,
            Snippet::FromTokens({{"a", "b", "c"}, {"d", "e"}, {"x"}}));
  EXPECT_EQ(loaded->adgroups[0].creatives[1].snippet,
            Snippet::FromTokens({{"\x01", "\x1f\x02", "y"}, {}, {"z"}}));
  for (const Creative& creative : loaded->adgroups[0].creatives) {
    for (const auto& line : creative.snippet.lines()) {
      for (const std::string& token : line) {
        EXPECT_FALSE(token.empty());
        EXPECT_EQ(token.find(' '), std::string::npos) << "'" << token << "'";
      }
    }
  }
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

TEST(AdCorpusIoTest, SnippetLineOverTheTokenCapIsRejected) {
  // Row 3's second line holds one token more than a line may.
  std::string long_line = "w0";
  for (size_t i = 1; i <= kMaxLineTokens; ++i) long_line += " w" + std::to_string(i);
  const std::string path = TempPath("corpus_long_line.tsv");
  WriteFile(path, "#microbrowse-adcorpus-v1\ttop\n"
                  "1\t2\tkw\t3\t100\t5\t0.05\ta | b | c\n"
                  "1\t2\tkw\t4\t100\t5\t0.05\ta | " + long_line + " | c\n"
                  "7\t2\tkw\t5\t100\t5\t0.05\ta | " + long_line + "\n");
  const auto strict = LoadAdCorpus(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find(":3: snippet line 2 holds 1025 tokens"),
            std::string::npos)
      << strict.status().message();

  LoadOptions salvage;
  salvage.recovery = LoadOptions::Recovery::kSkipAndLog;
  LoadReport report;
  const auto salvaged = LoadAdCorpus(path, salvage, &report);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_EQ(report.rows_kept, 1);
  EXPECT_EQ(report.rows_skipped, 2);
  // The refused rows leave no trace: adgroup 7 held only a refused row.
  ASSERT_EQ(salvaged->adgroups.size(), 1u);
  ASSERT_EQ(salvaged->adgroups[0].creatives.size(), 1u);
  EXPECT_EQ(salvaged->adgroups[0].creatives[0].id, 3);

  // A line at the cap loads.
  WriteFile(path, "#microbrowse-adcorpus-v1\ttop\n1\t2\tkw\t3\t100\t5\t0.05\ta | " +
                      long_line.substr(0, long_line.rfind(' ')) + "\n");
  const auto at_cap = LoadAdCorpus(path);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->adgroups[0].creatives[0].snippet.line(1).size(), kMaxLineTokens);
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

TEST(StatsIoTest, SmoothingMustBePositiveAndFinite) {
  // Each of these parses as a double but turns LogOdds into NaN or nonsense.
  const std::string path = TempPath("stats_bad_smoothing.tsv");
  for (const char* smoothing : {"nan", "inf", "-inf", "0", "-1", "-0"}) {
    WriteFile(path, std::string("#microbrowse-stats-v1\t") + smoothing + "\t0\nt:x\t1\t2\n");
    auto loaded = LoadFeatureStats(path);
    ASSERT_FALSE(loaded.ok()) << smoothing;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << smoothing;
    EXPECT_NE(loaded.status().message().find(":1:"), std::string::npos)
        << loaded.status().message();
  }
  WriteFile(path, "#microbrowse-stats-v1\t1e-3\t0\nt:x\t1\t2\n");
  EXPECT_TRUE(LoadFeatureStats(path).ok());
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

/// A v2 stats artifact (valid checksum footer) whose line 4 repeats the
/// key "t:a" of line 2 with other counts.
std::string WriteStatsWithDuplicateKey(const std::string& name) {
  const std::string path = TempPath(name);
  const std::string payload =
      "#microbrowse-stats-v1\t1.0\t0\n"
      "t:a\t1\t2\n"
      "t:b\t3\t4\n"
      "t:a\t5\t6\n";
  EXPECT_TRUE(WriteArtifactAtomic(path, payload, /*rows=*/3).ok());
  return path;
}

TEST(StatsIoTest, DuplicateKeyFailsStrictLoad) {
  const std::string path = WriteStatsWithDuplicateKey("stats_dup_strict.tsv");
  const auto loaded = LoadFeatureStats(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":4:"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("duplicate stats key 't:a'"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(StatsIoTest, RecoveringLoadKeepsTheFirstOfADuplicateKey) {
  const std::string path = WriteStatsWithDuplicateKey("stats_dup_salvage.tsv");
  LoadOptions salvage;
  salvage.recovery = LoadOptions::Recovery::kSkipAndLog;
  LoadReport report;
  const auto loaded = LoadFeatureStats(path, salvage, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  const FeatureStat* a = loaded->Find("t:a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->positive, 1);
  EXPECT_EQ(a->total, 2);
  const FeatureStat* b = loaded->Find("t:b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->total, 4);
  EXPECT_EQ(report.rows_kept, 2);
  EXPECT_EQ(report.rows_skipped, 1);
  EXPECT_EQ(report.first_error_line, 4);
  std::remove(path.c_str());
}

TEST(StatsIoTest, NegativeMinCountIsRejected) {
  const std::string path = TempPath("stats_negative_min_count.tsv");
  WriteFile(path, "#microbrowse-stats-v1\t1.0\t-1\nt:x\t1\t2\n");
  auto loaded = LoadFeatureStats(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":1:"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("min_count"), std::string::npos)
      << loaded.status().message();
  WriteFile(path, "#microbrowse-stats-v1\t1.0\t0\nt:x\t1\t2\n");
  EXPECT_TRUE(LoadFeatureStats(path).ok());
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
