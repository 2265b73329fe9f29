// Copyright 2026 The Microbrowse Authors
//
// The snippet classifier of Section IV: given a creative pair, predict
// which one has the higher CTR. Six configurations (M1-M6, Section V-D)
// ablate the micro-browsing model's ingredients:
//
//   M1 terms only            M2 terms w. position
//   M3 rewrites only         M4 rewrites w. position
//   M5 rewrites & terms      M6 rewrites & terms w. position
//
// All configurations warm-start their weights from the feature-statistics
// database. Position-aware configurations use the coupled logistic
// regression of Eq. 9: log O = sum_{(p,q)} P_{p,q} T_{p,q}, trained as
// one logistic regression over the position factor P, then one L1
// logistic regression over the relevance factor T.

#ifndef MICROBROWSE_MICROBROWSE_CLASSIFIER_H_
#define MICROBROWSE_MICROBROWSE_CLASSIFIER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "microbrowse/pair.h"
#include "microbrowse/rewrite.h"
#include "microbrowse/stats_db.h"
#include "ml/feature_registry.h"

namespace microbrowse {

/// Classifier configuration; use the M1()..M6() factories for the paper's
/// variants.
struct ClassifierConfig {
  std::string name = "custom";
  bool use_term_features = true;
  bool use_rewrite_features = false;
  bool use_position = false;
  /// How the full term extraction encodes positions when use_position is
  /// set: true = sparse term-x-position conjunction keys (model M2's
  /// "terms w. position"); false = the coupled P*T factorisation. The
  /// matched rewrite features always use the coupled form (Eq. 8/9 is the
  /// paper's construction for rewrites).
  bool term_position_conjunction = false;
  /// Same choice for the rewrite path's leftover terms.
  bool leftover_position_conjunction = false;

  static ClassifierConfig M1();
  static ClassifierConfig M2();
  static ClassifierConfig M3();
  static ClassifierConfig M4();
  static ClassifierConfig M5();
  static ClassifierConfig M6();
  /// All six, in order.
  static std::vector<ClassifierConfig> AllPaperModels();
  /// The paper model named `name` ("M1".."M6", case-sensitive);
  /// InvalidArgument for any other name.
  static Result<ClassifierConfig> ByName(std::string_view name);
};

/// One feature occurrence: relevance feature `t`, optional position
/// feature `p` (kInvalidFeatureId when positionless), and the occurrence
/// sign (+1 for the first snippet's side, -1 for the second's; rewrite
/// occurrences also fold in the canonicalisation sign).
struct CoupledOccurrence {
  FeatureId t = 0;
  FeatureId p = kInvalidFeatureId;
  double sign = 1.0;
};

/// One classifier example: occurrences plus the 0/1 label ("first snippet
/// has the higher serve weight").
struct CoupledExample {
  std::vector<CoupledOccurrence> occurrences;
  double label = 0.0;
};

/// A full classifier dataset with its feature registries. T-registry
/// initial weights hold log odds from the stats DB; P-registry initial
/// weights hold odds ratios (positive multipliers, neutral = 1).
struct CoupledDataset {
  std::vector<CoupledExample> examples;
  FeatureRegistry t_registry;
  FeatureRegistry p_registry;
};

/// Extracts classifier features for one ordered pair (first, second) into
/// `occurrences`, interning new features into the registries.
void ExtractPairOccurrences(const Snippet& first, const Snippet& second,
                            const FeatureStatsDb& db, const ClassifierConfig& config,
                            FeatureRegistry* t_registry, FeatureRegistry* p_registry,
                            std::vector<CoupledOccurrence>* occurrences);

/// Builds the classifier dataset from a pair corpus: each pair is
/// presented in a random order (seeded) so labels are balanced, and the
/// label says whether the first-presented creative has the higher serve
/// weight.
CoupledDataset BuildClassifierDataset(const PairCorpus& corpus, const FeatureStatsDb& db,
                                      const ClassifierConfig& config, uint64_t seed);

/// A CoupledDataset flattened into compressed-sparse-row form: example
/// i's occurrences live in t_ids/p_ids/signs[row_offsets[i] ..
/// row_offsets[i+1]). Built once per dataset (FlattenCoupledDataset) and
/// streamed by training and scoring, replacing the per-example occurrence
/// vector indirection on the hot path. Registry initial weights are
/// snapshotted at flatten time so the CSR view is self-contained.
struct CoupledCsr {
  std::vector<size_t> row_offsets;  ///< size() + 1 entries; front() == 0.
  std::vector<FeatureId> t_ids;     ///< Packed relevance-feature ids.
  std::vector<FeatureId> p_ids;     ///< Parallel; kInvalidFeatureId = no P.
  std::vector<double> signs;        ///< Parallel occurrence signs.
  std::vector<double> labels;       ///< One per example (0.0 / 1.0).
  std::vector<double> t_init;       ///< T warm-start weights (log odds).
  std::vector<double> p_init;       ///< P warm-start weights (odds ratios).

  size_t size() const { return labels.size(); }
  bool empty() const { return labels.empty(); }
  size_t num_t_features() const { return t_init.size(); }
  size_t num_p_features() const { return p_init.size(); }
};

/// Flattens `dataset` (including the registries' current initial weights)
/// into CSR form. Occurrence order within each example is preserved, so
/// training and scoring results are identical to the per-example path.
CoupledCsr FlattenCoupledDataset(const CoupledDataset& dataset);

/// Trained factor weights.
struct SnippetClassifierModel {
  std::vector<double> t_weights;
  std::vector<double> p_weights;
  double bias = 0.0;

  /// Linear score of CSR row `row` (positive = first snippet predicted
  /// better). Fold scoring only: every id of a flattened dataset is in
  /// range of the weights trained on it.
  double ScoreRow(const CoupledCsr& csr, size_t row) const;
};

/// Pairwise predicted margin of `first` over `second` under the trained
/// model (positive = first favoured): the bias plus sign * P * T over the
/// pair's features (Eq. 9), in extraction order. Read-only — nothing is
/// interned, so concurrent callers may share one bundle's registries. Each
/// weight is the trained one when the model has it, the registry's warm
/// start for a feature interned after training (an id past the trained
/// vectors), and the statistics database's warm start for a feature the
/// registry does not know. Equals scoring the occurrences that
/// ExtractPairOccurrences would intern into copies of the registries.
double PredictPairMargin(const Snippet& first, const Snippet& second, const FeatureStatsDb& db,
                         const ClassifierConfig& config, const SnippetClassifierModel& model,
                         const FeatureRegistry& t_registry, const FeatureRegistry& p_registry);

/// Trains the classifier on `train_indices` of `dataset` (all examples
/// when empty). Plain configurations run one L1 LR over T; position
/// configurations fit P against the warm-started T, then retrain T against
/// that P (Eq. 9). Flattens the dataset once and delegates to the CSR
/// overload.
Result<SnippetClassifierModel> TrainSnippetClassifier(
    const CoupledDataset& dataset, const ClassifierConfig& config,
    const std::vector<size_t>& train_indices = {});

/// CSR entry point for callers that reuse one flattened dataset across
/// many training runs (the CV pipeline trains every fold against the same
/// CoupledCsr). Both phases train with AdaGrad, which is sequential.
Result<SnippetClassifierModel> TrainSnippetClassifier(
    const CoupledCsr& csr, const ClassifierConfig& config,
    const std::vector<size_t>& train_indices = {});

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_CLASSIFIER_H_
