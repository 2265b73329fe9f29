// Copyright 2026 The Microbrowse Authors
//
// Scaling study: how the reproduction's accuracies and runtimes move with
// corpus size. Supports the claim in EXPERIMENTS.md that the shape
// (position-blind vs position-aware gap) is stable once the corpus reaches
// a few thousand adgroups.
//
// Environment: MB_FOLDS (default 4), MB_SEED.

#include <cstdio>
#include <iostream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "eval/experiments.h"

int main() {
  using namespace microbrowse;

  const int folds = static_cast<int>(EnvInt("MB_FOLDS", 4));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("MB_SEED", 2026, /*min_value=*/0));

  TablePrinter table("SCALING: accuracy and runtime vs corpus size (M1 vs M6)");
  table.SetHeader({"Adgroups", "Pairs", "M1 acc", "M6 acc", "Gap", "Seconds"});

  for (int adgroups : {500, 1000, 2000, 4000}) {
    ExperimentOptions options;
    options.num_adgroups = adgroups;
    options.folds = folds;
    options.seed = seed;
    options.Normalize();
    auto pairs = MakePairCorpus(options, Placement::kTop);
    if (!pairs.ok()) {
      std::fprintf(stderr, "corpus failed: %s\n", pairs.status().ToString().c_str());
      return 1;
    }
    WallTimer timer;
    auto m1 = RunPairClassificationCv(*pairs, ClassifierConfig::M1(), options.pipeline);
    auto m6 = RunPairClassificationCv(*pairs, ClassifierConfig::M6(), options.pipeline);
    if (!m1.ok() || !m6.ok()) {
      std::fprintf(stderr, "pipeline failed\n");
      return 1;
    }
    table.AddRow({StrFormat("%d", adgroups), StrFormat("%zu", pairs->pairs.size()),
                  FormatPercent(m1->metrics.accuracy()), FormatPercent(m6->metrics.accuracy()),
                  StrFormat("%+.1fpp",
                            (m6->metrics.accuracy() - m1->metrics.accuracy()) * 100.0),
                  FormatDouble(timer.ElapsedSeconds(), 1)});
    std::fflush(stdout);
  }
  table.Print(std::cout);
  std::printf("\nThe M6-over-M1 gap is the paper's effect; it should be present at\n"
              "every scale and stabilise as the statistics database densifies.\n");
  return 0;
}
