// Copyright 2026 The Microbrowse Authors

#include "eval/experiments.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace microbrowse {

void ExperimentOptions::Normalize() {
  corpus.num_adgroups = num_adgroups;
  corpus.seed = seed;
  pipeline.folds = folds;
  pipeline.seed = seed ^ 0xfeedULL;
}

int64_t EnvInt(const char* name, int64_t fallback, int64_t min_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || parsed < min_value) return fallback;
  return static_cast<int64_t>(parsed);
}

Result<PairCorpus> MakePairCorpus(const ExperimentOptions& options, Placement placement) {
  AdCorpusOptions corpus_options = options.corpus;
  corpus_options.placement = placement;
  // Decorrelate the RHS corpus from the TOP corpus.
  if (placement == Placement::kRhs) corpus_options.seed ^= 0xabcdef01ULL;
  auto generated = GenerateAdCorpus(corpus_options);
  if (!generated.ok()) return generated.status();
  return ExtractSignificantPairs(generated->corpus, options.extraction);
}

Result<Table2Result> RunTable2(const ExperimentOptions& raw_options) {
  ExperimentOptions options = raw_options;
  options.Normalize();
  auto pairs = MakePairCorpus(options, Placement::kTop);
  if (!pairs.ok()) return pairs.status();
  MB_LOG(kInfo) << "Table 2: " << pairs->pairs.size() << " significant pairs from "
                << options.num_adgroups << " adgroups";

  Table2Result result;
  result.num_pairs = pairs->pairs.size();
  result.num_adgroups = options.num_adgroups;
  for (const ClassifierConfig& config : ClassifierConfig::AllPaperModels()) {
    auto report = RunPairClassificationCv(*pairs, config, options.pipeline);
    if (!report.ok()) return report.status();
    Table2Row row;
    row.model = config.name;
    row.recall = report->metrics.recall();
    row.precision = report->metrics.precision();
    row.f_measure = report->metrics.f1();
    row.accuracy = report->metrics.accuracy();
    row.auc = report->auc;
    result.rows.push_back(row);
    MB_LOG(kInfo) << config.name << ": F=" << row.f_measure << " acc=" << row.accuracy
                  << " (" << report->train_seconds << "s)";
  }
  return result;
}

Result<Fig3Result> RunFig3(const ExperimentOptions& raw_options) {
  ExperimentOptions options = raw_options;
  options.Normalize();
  auto pairs = MakePairCorpus(options, Placement::kTop);
  if (!pairs.ok()) return pairs.status();
  // The interpretable per-(line, position) factor comes from the coupled
  // P*T parameterisation over term features (conjunction keys tie position
  // to each term and have no standalone position weight to plot; the
  // rewrite-path features would absorb part of the position signal).
  ClassifierConfig config = ClassifierConfig::M2();
  config.term_position_conjunction = false;
  auto report = LearnPositionWeights(*pairs, config, options.pipeline);
  if (!report.ok()) return report.status();
  Fig3Result result;
  result.weights = report->term_position_weights;
  return result;
}

Result<Table4Result> RunTable4(const ExperimentOptions& raw_options) {
  ExperimentOptions options = raw_options;
  options.Normalize();
  auto top_pairs = MakePairCorpus(options, Placement::kTop);
  if (!top_pairs.ok()) return top_pairs.status();
  auto rhs_pairs = MakePairCorpus(options, Placement::kRhs);
  if (!rhs_pairs.ok()) return rhs_pairs.status();
  MB_LOG(kInfo) << "Table 4: " << top_pairs->pairs.size() << " top pairs, "
                << rhs_pairs->pairs.size() << " rhs pairs";

  Table4Result result;
  result.top_pairs = top_pairs->pairs.size();
  result.rhs_pairs = rhs_pairs->pairs.size();
  for (const ClassifierConfig& config : ClassifierConfig::AllPaperModels()) {
    auto top_report = RunPairClassificationCv(*top_pairs, config, options.pipeline);
    if (!top_report.ok()) return top_report.status();
    auto rhs_report = RunPairClassificationCv(*rhs_pairs, config, options.pipeline);
    if (!rhs_report.ok()) return rhs_report.status();
    Table4Row row;
    row.model = config.name;
    row.top_accuracy = top_report->metrics.accuracy();
    row.rhs_accuracy = rhs_report->metrics.accuracy();
    result.rows.push_back(row);
    MB_LOG(kInfo) << config.name << ": top=" << row.top_accuracy
                  << " rhs=" << row.rhs_accuracy;
  }
  return result;
}

}  // namespace microbrowse
