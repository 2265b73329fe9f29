// Copyright 2026 The Microbrowse Authors
//
// Experiment drivers regenerating the paper's evaluation artefacts:
//   Table 2  — recall / precision / F-measure of M1..M6, 10-fold CV
//   Figure 3 — learned term-position weights for lines 1-3
//   Table 4  — accuracy of M1..M6 for TOP vs RHS ad placement
// Each driver generates a synthetic ADCORPUS (see corpus/), extracts
// significant pairs, and runs the two-phase classification pipeline.

#ifndef MICROBROWSE_EVAL_EXPERIMENTS_H_
#define MICROBROWSE_EVAL_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/pipeline.h"

namespace microbrowse {

/// Shared experiment configuration. The default scale finishes in a couple
/// of minutes on one core; scale up via num_adgroups (or the MB_ADGROUPS
/// environment variable in the bench binaries).
struct ExperimentOptions {
  int num_adgroups = 8000;
  int folds = 10;
  uint64_t seed = 2026;
  AdCorpusOptions corpus;          ///< placement/seeds overridden per driver.
  PairExtractionOptions extraction;
  PipelineOptions pipeline;

  /// Applies num_adgroups / seed / folds to the nested option structs.
  void Normalize();
};

/// One Table 2 row.
struct Table2Row {
  std::string model;
  double recall = 0.0;
  double precision = 0.0;
  double f_measure = 0.0;
  double accuracy = 0.0;
  double auc = 0.5;
};

/// Table 2: per-model cross-validated metrics, plus corpus statistics.
struct Table2Result {
  std::vector<Table2Row> rows;
  size_t num_pairs = 0;
  size_t num_adgroups = 0;
};

/// Runs the Table 2 experiment (TOP placement).
Result<Table2Result> RunTable2(const ExperimentOptions& options);

/// Figure 3: learned term-position weights, [line][position bucket]
/// (NaN where a position never occurs in the data).
struct Fig3Result {
  std::vector<std::vector<double>> weights;
};

/// Runs the Figure 3 experiment: trains M6 on the full corpus and reads
/// the learned position factor.
Result<Fig3Result> RunFig3(const ExperimentOptions& options);

/// One Table 4 row: accuracy under the two placements.
struct Table4Row {
  std::string model;
  double top_accuracy = 0.0;
  double rhs_accuracy = 0.0;
};

/// Table 4: per-model accuracy for TOP vs RHS corpora.
struct Table4Result {
  std::vector<Table4Row> rows;
  size_t top_pairs = 0;
  size_t rhs_pairs = 0;
};

/// Runs the Table 4 experiment.
Result<Table4Result> RunTable4(const ExperimentOptions& options);

/// Generates a corpus and extracts its significant pair corpus — the
/// common preamble of all drivers, exposed for examples and tests.
Result<PairCorpus> MakePairCorpus(const ExperimentOptions& options, Placement placement);

/// Reads an integer of at least `min_value` from the environment (for
/// bench-time scaling); returns `fallback` when unset, unparsable or below
/// `min_value`. The default asks for a positive value; knobs where 0 means
/// something (a stage that 0 skips, a seed, a 0% noise level) pass 0.
int64_t EnvInt(const char* name, int64_t fallback, int64_t min_value = 1);

}  // namespace microbrowse

#endif  // MICROBROWSE_EVAL_EXPERIMENTS_H_
