// Copyright 2026 The Microbrowse Authors
//
// Design-choice ablations beyond the paper's own M1-M6 sweep (DESIGN.md
// experiment E6):
//   1. Rewrite-matching strategy: the paper's stats-guided greedy matcher
//      vs. naive first-match and locality-only matching.
//   2. Warm-start initialisation from the feature-statistics database
//      on vs. off.
//   3. Coupled-LR alternation depth (1 vs. 3 rounds).
//   4. Statistics-database matching passes (1 vs. 2).
//
// Environment: MB_ADGROUPS (default 2500), MB_FOLDS, MB_SEED.

#include <cstdio>
#include <iostream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/experiments.h"

int main() {
  using namespace microbrowse;

  ExperimentOptions options;
  options.num_adgroups = static_cast<int>(EnvInt("MB_ADGROUPS", 2500));
  options.folds = static_cast<int>(EnvInt("MB_FOLDS", 5));
  options.seed = static_cast<uint64_t>(EnvInt("MB_SEED", 2026, /*min_value=*/0));
  options.Normalize();

  auto pairs = MakePairCorpus(options, Placement::kTop);
  if (!pairs.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n", pairs.status().ToString().c_str());
    return 1;
  }
  std::printf("ablation corpus: %zu pairs from %d adgroups\n\n", pairs->pairs.size(),
              options.num_adgroups);

  TablePrinter table("ABLATIONS (model M6 unless noted; accuracy under grouped CV)");
  table.SetHeader({"Variant", "Accuracy", "F-Measure", "AUC"});

  auto run = [&](const std::string& label, const ClassifierConfig& config,
                 const PipelineOptions& pipeline) {
    auto report = RunPairClassificationCv(*pairs, config, pipeline);
    if (!report.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", label.c_str(),
                   report.status().ToString().c_str());
      return;
    }
    table.AddRow({label, FormatPercent(report->metrics.accuracy()),
                  FormatDouble(report->metrics.f1(), 3), FormatDouble(report->auc, 3)});
    std::fprintf(stderr, "done: %s (%.1fs)\n", label.c_str(), report->train_seconds);
  };

  // 1. Matching strategy (exercised through M4, the rewrite-centric model).
  {
    ClassifierConfig config = ClassifierConfig::M4();
    run("M4, greedy stats matching (paper)", config, options.pipeline);
    config.matching = MatchingStrategy::kPositionOnly;
    run("M4, locality-only matching", config, options.pipeline);
    config.matching = MatchingStrategy::kFirstMatch;
    run("M4, naive first-match", config, options.pipeline);
  }

  // 2. Warm start from the statistics database.
  {
    ClassifierConfig config = ClassifierConfig::M6();
    run("M6, stats-db warm start (paper)", config, options.pipeline);
    config.init_from_stats = false;
    run("M6, zero initialisation", config, options.pipeline);
  }

  // 3. Coupled alternation depth.
  {
    ClassifierConfig config = ClassifierConfig::M6();
    config.coupled_iterations = 3;
    run("M6, 3 coupled rounds", config, options.pipeline);
  }

  // 4. Statistics matching passes.
  {
    PipelineOptions pipeline = options.pipeline;
    pipeline.stats.matching_passes = 1;
    run("M6, single stats pass", ClassifierConfig::M6(), pipeline);
  }

  // 5. Sparsity backoff for tail rewrites (off by default, matching the
  // paper; the variant enables it).
  {
    ClassifierConfig config = ClassifierConfig::M4();
    config.rewrite_min_support = 3;
    run("M4, tail-rewrite backoff at support 3", config, options.pipeline);
  }

  table.Print(std::cout);
  return 0;
}
