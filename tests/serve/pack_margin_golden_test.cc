// Copyright 2026 The Microbrowse Authors
//
// Golden repro of pack-served M6 margins: a seeded small corpus is trained
// into TSV artifacts, converted to mbpacks the way `mbctl pack` does it
// (TSV load, then SaveStatsPack / SaveClassifierPack), loaded through
// LoadBundle, and a fixed set of score_pair margins — sibling pairs of the
// training corpus and of a held-out corpus, so trained weights, warm starts
// and stats fallbacks are all read off the mapping — must reproduce
// tests/eval/golden/pack_m6_margins.txt digit for digit at %.17g, i.e. bit
// for bit. A change to the pack layout or its lookups that moves a single
// served score fails here.
//
// Regenerating after an *intentional* numerical change:
//   MB_REGEN_GOLDEN=1 ./build/tests/mb_golden_repro_test
// and say in the commit which margins moved and why. On failure the
// computed file is written next to the golden as pack_m6_margins.actual.txt.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/atomic_file.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "serve/bundle.h"

#ifndef MB_GOLDEN_DIR
#error "MB_GOLDEN_DIR must be defined to the checked-in golden directory"
#endif

namespace microbrowse {
namespace serve {
namespace {

std::string GoldenPath() { return std::string(MB_GOLDEN_DIR) + "/pack_m6_margins.txt"; }

/// Up to `limit` ordered sibling pairs of `corpus`, adgroup by adgroup,
/// each scored against `bundle` and appended to `out` as one line:
/// "<label> <adgroup> <i> <j> <margin %.17g>".
void AppendMargins(const std::string& label, const AdCorpus& corpus, const ModelBundle& bundle,
                   size_t limit, std::string* out) {
  size_t written = 0;
  for (size_t g = 0; g < corpus.adgroups.size() && written < limit; ++g) {
    const auto& creatives = corpus.adgroups[g].creatives;
    for (size_t i = 0; i < creatives.size() && written < limit; ++i) {
      for (size_t j = 0; j < creatives.size() && written < limit; ++j) {
        if (i == j) continue;
        const double margin = PredictPairMargin(
            creatives[i].snippet, creatives[j].snippet, bundle.stats, bundle.config,
            bundle.classifier.model, bundle.classifier.t_registry,
            bundle.classifier.p_registry);
        char line[160];
        std::snprintf(line, sizeof(line), "%s %zu %zu %zu %.17g\n", label.c_str(), g, i, j,
                      margin);
        *out += line;
        ++written;
      }
    }
  }
}

TEST(PackMarginGoldenTest, PackServedM6MarginsMatchCheckedInGolden) {
  const std::string dir =
      ::testing::TempDir() + "/pack_margin_golden_" + std::to_string(::getpid());
  ASSERT_TRUE(CreateDirectories(dir).ok());

  AdCorpusOptions corpus_options;
  corpus_options.num_adgroups = 60;
  corpus_options.seed = 23;
  auto generated = GenerateAdCorpus(corpus_options);
  ASSERT_TRUE(generated.ok());
  const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
  const FeatureStatsDb db = BuildFeatureStats(pairs, {});
  const ClassifierConfig config = ClassifierConfig::M6();
  const CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, 23);
  auto model = TrainSnippetClassifier(dataset, config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(SaveFeatureStats(db, dir + "/stats.tsv").ok());
  ASSERT_TRUE(
      SaveClassifier(*model, dataset.t_registry, dataset.p_registry, dir + "/model.txt").ok());

  // The mbctl pack flow: packs are converted from the TSV artifacts.
  auto tsv_db = LoadFeatureStats(dir + "/stats.tsv");
  auto tsv_model = LoadClassifier(dir + "/model.txt");
  ASSERT_TRUE(tsv_db.ok() && tsv_model.ok());
  ASSERT_TRUE(SaveStatsPack(*tsv_db, dir + "/stats.mbp").ok());
  ASSERT_TRUE(SaveClassifierPack(tsv_model->model, tsv_model->t_registry,
                                 tsv_model->p_registry, dir + "/model.mbp")
                  .ok());
  BundlePaths paths;
  paths.model_path = dir + "/model.mbp";
  paths.stats_path = dir + "/stats.mbp";
  auto bundle = LoadBundle(paths, 1);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_GT((*bundle)->classifier.t_registry.base_size(), 0u) << "bundle is not pack-backed";

  AdCorpusOptions held_out_options;
  held_out_options.num_adgroups = 12;
  held_out_options.seed = 2301;
  auto held_out = GenerateAdCorpus(held_out_options);
  ASSERT_TRUE(held_out.ok());

  std::string actual;
  AppendMargins("seen", generated->corpus, **bundle, 48, &actual);
  AppendMargins("held", held_out->corpus, **bundle, 48, &actual);

  if (const char* regen = std::getenv("MB_REGEN_GOLDEN");
      regen != nullptr && *regen != '\0' && std::string(regen) != "0") {
    std::ofstream out(GoldenPath(), std::ios::out | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << GoldenPath();
    out << actual;
    out.close();
    ASSERT_FALSE(out.fail());
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << GoldenPath() << " missing; regenerate with MB_REGEN_GOLDEN=1 (see header)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual.size(), golden.str().size());
  std::istringstream golden_lines(golden.str());
  std::istringstream actual_lines(actual);
  std::string golden_line, actual_line;
  size_t lines = 0, mismatches = 0;
  while (std::getline(golden_lines, golden_line)) {
    ++lines;
    if (!std::getline(actual_lines, actual_line)) actual_line.clear();
    if (actual_line != golden_line && ++mismatches <= 5) {
      ADD_FAILURE() << "golden: " << golden_line << "\nactual: " << actual_line;
    }
  }
  EXPECT_EQ(lines, 96u);
  EXPECT_EQ(mismatches, 0u) << "of " << lines << " margins";
  if (mismatches != 0 || actual.size() != golden.str().size()) {
    std::ofstream out(std::string(MB_GOLDEN_DIR) + "/pack_m6_margins.actual.txt");
    out << actual;
  }
}

}  // namespace
}  // namespace serve
}  // namespace microbrowse
