// Copyright 2026 The Microbrowse Authors
//
// Reproduces Figure 3 of the paper: the learned term position weights for
// snippet lines 1-3. The paper plots the position factor learned by the
// coupled logistic regression — weights decrease with the position inside
// a line and from line 1 to line 3, mirroring how users actually scan a
// snippet.
//
// Environment: MB_ADGROUPS, MB_SEED.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/experiments.h"
#include "microbrowse/ctr_predictor.h"

int main() {
  using namespace microbrowse;

  ExperimentOptions options;
  options.num_adgroups = static_cast<int>(EnvInt("MB_ADGROUPS", 6000));
  options.seed = static_cast<uint64_t>(EnvInt("MB_SEED", 2026, /*min_value=*/0));

  auto result = RunFig3(options);
  if (!result.ok()) {
    std::fprintf(stderr, "Figure 3 experiment failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  TablePrinter table(
      "FIGURE 3: LEARNED TERM POSITION WEIGHTS (LINE 1, 2, 3)\n"
      "(position factor of the coupled LR in model M6; '-' = position unseen)");
  std::vector<std::string> header = {"Line"};
  const size_t buckets = result->weights.empty() ? 0 : result->weights[0].size();
  for (size_t b = 0; b < buckets; ++b) header.push_back(StrFormat("pos %zu", b));
  table.SetHeader(header);

  CsvWriter csv;
  if (!csv.Open("fig3.csv").ok()) std::fprintf(stderr, "warning: cannot write fig3.csv\n");
  if (csv.is_open()) {
    std::vector<std::string> csv_header = {"line"};
    for (size_t b = 0; b < buckets; ++b) csv_header.push_back(StrFormat("pos%zu", b));
    (void)csv.WriteRow(csv_header);
  }
  for (size_t line = 0; line < result->weights.size(); ++line) {
    std::vector<std::string> row = {StrFormat("line %zu", line + 1)};
    std::vector<std::string> csv_row = {StrFormat("%zu", line + 1)};
    for (size_t b = 0; b < buckets; ++b) {
      const double w = result->weights[line][b];
      row.push_back(std::isnan(w) ? "-" : FormatDouble(w, 3));
      csv_row.push_back(std::isnan(w) ? "" : FormatDouble(w, 5));
    }
    table.AddRow(row);
    if (csv.is_open()) (void)csv.WriteRow(csv_row);
  }
  (void)csv.Close();
  table.Print(std::cout);

  // Summarize the grid with the parametric examination-curve fit.
  auto fitted = FitExaminationCurve(result->weights);
  if (fitted.ok()) {
    std::printf("\nfitted parametric curve: line bases =");
    for (double base : fitted->line_bases()) std::printf(" %.3f", base);
    std::printf(", within-line decay = %.3f per position\n", fitted->pos_decay());
  }
  std::printf(
      "\nExpected shape (paper's Figure 3): weights decay with position within\n"
      "a line and drop from line 1 to line 3.\nWrote fig3.csv\n");
  return 0;
}
