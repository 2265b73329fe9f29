// Copyright 2026 The Microbrowse Authors
//
// Reproduces Table 4 of the paper: accuracy of the creative classifiers
// M1..M6 for TOP versus right-hand-side (RHS) ad placement. RHS users
// examine the ads far less, so the click data is noisier and every model's
// accuracy dips slightly below its TOP counterpart.
//
// Paper reference values:
//   M1 57.1 / 57.0    M2 65.7 / 65.1    M3 60.2 / 59.9
//   M4 71.1 / 70.8    M5 60.9 / 60.6    M6 71.4 / 71.1
//
// Environment: MB_ADGROUPS, MB_FOLDS, MB_SEED.

#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/experiments.h"

int main() {
  using namespace microbrowse;

  ExperimentOptions options;
  options.num_adgroups = static_cast<int>(EnvInt("MB_ADGROUPS", 6000));
  options.folds = static_cast<int>(EnvInt("MB_FOLDS", 5));
  options.seed = static_cast<uint64_t>(EnvInt("MB_SEED", 2026, /*min_value=*/0));

  auto result = RunTable4(options);
  if (!result.ok()) {
    std::fprintf(stderr, "Table 4 experiment failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  TablePrinter table(StrFormat(
      "TABLE 4: ACCURACY OF CREATIVE CLASSIFICATION IN DIFFERENT CONFIGURATION (TOP VS. RHS)\n"
      "(%zu top pairs, %zu rhs pairs, %d-fold CV)",
      result->top_pairs, result->rhs_pairs, options.folds));
  table.SetHeader({"Feature", "Top", "Rhs"});
  const char* kDescriptions[] = {"Terms only",       "Terms w. position",
                                 "Rewrites only",    "Rewrites w. position",
                                 "Rewrites and terms", "Rewrites and terms w. position"};
  CsvWriter csv;
  if (!csv.Open("table4.csv").ok()) std::fprintf(stderr, "warning: cannot write table4.csv\n");
  if (csv.is_open()) (void)csv.WriteRow({"model", "top_accuracy", "rhs_accuracy"});
  for (size_t i = 0; i < result->rows.size(); ++i) {
    const Table4Row& row = result->rows[i];
    table.AddRow({StrFormat("%s: %s", row.model.c_str(), kDescriptions[i]),
                  FormatPercent(row.top_accuracy), FormatPercent(row.rhs_accuracy)});
    if (csv.is_open()) {
      (void)csv.WriteRow({row.model, FormatDouble(row.top_accuracy, 4),
                          FormatDouble(row.rhs_accuracy, 4)});
    }
  }
  (void)csv.Close();
  table.Print(std::cout);
  std::printf("\nPaper (ADCORPUS): top/rhs — M1 57.1/57.0, M2 65.7/65.1, M3 60.2/59.9, "
              "M4 71.1/70.8, M5 60.9/60.6, M6 71.4/71.1\nWrote table4.csv\n");
  return 0;
}
