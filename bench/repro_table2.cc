// Copyright 2026 The Microbrowse Authors
//
// Reproduces Table 2 of the paper: recall / precision / F-measure of the
// six snippet-classifier variants M1..M6 under 10-fold cross-validation.
//
// Paper reference values (proprietary ADCORPUS):
//   M1 55.9 / 58.2 / 0.570    M2 64.4 / 66.3 / 0.653
//   M3 59.0 / 61.2 / 0.601    M4 70.0 / 71.9 / 0.709
//   M5 59.7 / 61.8 / 0.607    M6 70.4 / 72.1 / 0.712
// The synthetic corpus will not match these absolute numbers; the target
// is the ordering M1 < M3 < M5 < M2 < M4 <= M6 and the large gap from
// position information.
//
// Environment: MB_ADGROUPS (corpus size), MB_FOLDS, MB_SEED.

#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/experiments.h"

int main() {
  using namespace microbrowse;

  ExperimentOptions options;
  options.num_adgroups = static_cast<int>(EnvInt("MB_ADGROUPS", 12000));
  options.folds = static_cast<int>(EnvInt("MB_FOLDS", 10));
  options.seed = static_cast<uint64_t>(EnvInt("MB_SEED", 2026, /*min_value=*/0));

  auto result = RunTable2(options);
  if (!result.ok()) {
    std::fprintf(stderr, "Table 2 experiment failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  TablePrinter table(StrFormat(
      "TABLE 2: ACCURACY OF CREATIVE CLASSIFICATION USING DIFFERENT SETS OF FEATURES\n"
      "(%zu pairs from %zu adgroups, %d-fold CV)",
      result->num_pairs, result->num_adgroups, options.folds));
  table.SetHeader({"Feature", "Recall", "Precision", "F-Measure"});
  const char* kDescriptions[] = {"Terms only",        "Terms w. pos",
                                 "Rewrites only",     "Rewrites w. pos",
                                 "Rewrites & terms",  "Rewrites & terms w. pos"};
  CsvWriter csv;
  if (!csv.Open("table2.csv").ok()) std::fprintf(stderr, "warning: cannot write table2.csv\n");
  if (csv.is_open()) {
    (void)csv.WriteRow({"model", "recall", "precision", "f_measure", "accuracy", "auc"});
  }
  for (size_t i = 0; i < result->rows.size(); ++i) {
    const Table2Row& row = result->rows[i];
    table.AddRow({StrFormat("%s: %s", row.model.c_str(), kDescriptions[i]),
                  FormatPercent(row.recall), FormatPercent(row.precision),
                  FormatDouble(row.f_measure, 3)});
    if (csv.is_open()) {
      (void)csv.WriteRow({row.model, FormatDouble(row.recall, 4), FormatDouble(row.precision, 4),
                          FormatDouble(row.f_measure, 4), FormatDouble(row.accuracy, 4),
                          FormatDouble(row.auc, 4)});
    }
  }
  (void)csv.Close();
  table.Print(std::cout);
  std::printf("\nPaper (ADCORPUS): M1 F=0.570, M2 F=0.653, M3 F=0.601, M4 F=0.709, "
              "M5 F=0.607, M6 F=0.712\n");
  std::printf("Wrote table2.csv\n");
  return 0;
}
