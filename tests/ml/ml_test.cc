// Copyright 2026 The Microbrowse Authors
//
// Tests for the ML substrate: the feature registry, logistic regression
// on CSR rows, metrics and cross-validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "ml/cross_validation.h"
#include "ml/csr.h"
#include "ml/feature_registry.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"

namespace microbrowse {
namespace {

// --- FeatureRegistry

TEST(FeatureRegistryTest, InternWithInitialWeights) {
  FeatureRegistry registry;
  const FeatureId a = registry.Intern("t:cheap", 0.7);
  const FeatureId b = registry.Intern("t:flights", -0.2);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_DOUBLE_EQ(registry.InitialWeightOf(a), 0.7);
  EXPECT_EQ(registry.NameOf(b), "t:flights");
  EXPECT_EQ(registry.InitialWeights(), (std::vector<double>{0.7, -0.2}));
}

TEST(FeatureRegistryTest, ReInternKeepsFirstWeight) {
  FeatureRegistry registry;
  const FeatureId a = registry.Intern("x", 1.0);
  EXPECT_EQ(registry.Intern("x", 99.0), a);
  EXPECT_DOUBLE_EQ(registry.InitialWeightOf(a), 1.0);
}

TEST(FeatureRegistryTest, InternNewAssignsTheIdInternWould) {
  FeatureRegistry interned;
  FeatureRegistry inserted;
  for (const char* name : {"t:cheap", "t:flights", "p:l1p0"}) {
    ASSERT_EQ(inserted.Find(name), kInvalidFeatureId);
    const FeatureId id = inserted.InternNew(name, 0.5);
    EXPECT_EQ(id, interned.Intern(name, 0.5));
    EXPECT_EQ(inserted.Find(name), id);
    EXPECT_EQ(inserted.NameOf(id), name);
  }
  EXPECT_EQ(inserted.InitialWeights(), interned.InitialWeights());
}

TEST(FeatureRegistryTest, CopyAgreesOnEveryIdAndInternsIndependently) {
  FeatureRegistry original;
  for (int i = 0; i < 1000; ++i) {
    original.Intern("t:term " + std::to_string(i), 0.001 * i);
  }
  original.Intern("", -1.0);  // The empty name is a name like any other.
  const FeatureRegistry copy = original;
  ASSERT_EQ(copy.size(), original.size());
  for (FeatureId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(copy.NameOf(id), original.NameOf(id)) << id;
    EXPECT_EQ(copy.Find(original.NameOf(id)), id) << id;
    EXPECT_EQ(copy.InitialWeightOf(id), original.InitialWeightOf(id)) << id;
  }
  EXPECT_EQ(copy.InitialWeights(), original.InitialWeights());

  // New names take the next id in both, and interning into one leaves the
  // other unchanged.
  FeatureRegistry interned = copy;
  FeatureRegistry inserted = copy;
  for (const char* name : {"t:new", "p:l9p9", "t:term 1000"}) {
    ASSERT_EQ(inserted.Find(name), kInvalidFeatureId);
    EXPECT_EQ(inserted.InternNew(name, 0.25), interned.Intern(name, 0.25));
  }
  EXPECT_EQ(inserted.InitialWeights(), interned.InitialWeights());
  EXPECT_EQ(copy.size(), original.size());
  EXPECT_EQ(copy.Find("t:new"), kInvalidFeatureId);
  EXPECT_EQ(interned.Find("t:new"), original.size());
}

TEST(FeatureRegistryTest, FindMissing) {
  FeatureRegistry registry;
  EXPECT_EQ(registry.Find("nothing"), kInvalidFeatureId);
}

TEST(FeatureRegistryTest, SetInitialWeight) {
  FeatureRegistry registry;
  const FeatureId a = registry.Intern("x", 1.0);
  registry.SetInitialWeight(a, 2.5);
  EXPECT_DOUBLE_EQ(registry.InitialWeightOf(a), 2.5);
}

// --- LogisticRegression

/// A dataset of `num_features` features and no rows yet.
CsrDataset EmptyRows(size_t num_features) {
  CsrDataset data;
  data.num_features = num_features;
  data.row_offsets.push_back(0);
  return data;
}

/// Appends one row holding `entries` (distinct ids, ascending).
void AddRow(CsrDataset* data, const std::vector<std::pair<FeatureId, double>>& entries,
            double label, double offset = 0.0) {
  for (const auto& [id, value] : entries) {
    data->ids.push_back(id);
    data->values.push_back(value);
  }
  data->row_offsets.push_back(data->ids.size());
  data->labels.push_back(label);
  data->offsets.push_back(offset);
}

/// A linearly separable 2-feature dataset: label = (x0 > x1).
CsrDataset MakeSeparableDataset(int n, uint64_t seed) {
  CsrDataset data = EmptyRows(2);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    AddRow(&data, {{0, x0}, {1, x1}}, x0 > x1 ? 1.0 : 0.0);
  }
  return data;
}

/// Linear score of row `i` under `model`: bias + offset + w.x.
double Score(const LogisticModel& model, const CsrDataset& data, size_t i) {
  double score = model.bias + data.offsets[i];
  for (size_t k = data.row_offsets[i]; k < data.row_offsets[i + 1]; ++k) {
    score += data.values[k] * model.weights[data.ids[k]];
  }
  return score;
}

double Accuracy(const LogisticModel& model, const CsrDataset& data) {
  int correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    correct += ((Score(model, data, i) >= 0.0) == (data.labels[i] > 0.5)) ? 1 : 0;
  }
  return static_cast<double>(correct) / data.size();
}

double MeanLogLoss(const LogisticModel& model, const CsrDataset& data) {
  double total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    total += LogLoss(data.labels[i], Sigmoid(Score(model, data, i)));
  }
  return total / data.size();
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  const CsrDataset data = MakeSeparableDataset(2000, 5);
  LrOptions options;
  options.epochs = 60;
  options.l1 = 1e-5;
  auto model = TrainLogisticRegression(data, options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(Accuracy(*model, data), 0.95);
  // Weight signs match the generating rule.
  EXPECT_GT(model->weights[0], 0.0);
  EXPECT_LT(model->weights[1], 0.0);
}

TEST(LogisticRegressionTest, StrongL1ZeroesIrrelevantFeatures) {
  const CsrDataset separable = MakeSeparableDataset(2000, 9);
  CsrDataset data = EmptyRows(4);
  Rng rng(10);
  for (size_t i = 0; i < separable.size(); ++i) {
    const double noise2 = rng.Uniform(-1.0, 1.0);  // Pure noise features.
    const double noise3 = rng.Uniform(-1.0, 1.0);
    AddRow(&data,
           {{0, separable.values[2 * i]}, {1, separable.values[2 * i + 1]}, {2, noise2},
            {3, noise3}},
           separable.labels[i]);
  }
  LrOptions options;
  options.epochs = 40;
  options.l1 = 0.05;
  auto model = TrainLogisticRegression(data, options);
  ASSERT_TRUE(model.ok());
  // The informative weights survive the penalty; noise weights are tiny.
  EXPECT_GT(std::fabs(model->weights[0]), 5.0 * std::fabs(model->weights[2]));
  EXPECT_GT(std::fabs(model->weights[1]), 5.0 * std::fabs(model->weights[3]));
}

TEST(LogisticRegressionTest, WarmStartIsUsedWithZeroEpochs) {
  const CsrDataset data = MakeSeparableDataset(100, 5);
  LrOptions options;
  options.epochs = 0;
  const std::vector<double> init = {3.0, -3.0};
  auto model = TrainLogisticRegression(data, options, &init);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->weights, init);
  EXPECT_GT(Accuracy(*model, data), 0.95);
}

TEST(LogisticRegressionTest, RejectsEmptyDataset) {
  EXPECT_FALSE(TrainLogisticRegression(EmptyRows(0), LrOptions{}).ok());
}

TEST(LogisticRegressionTest, RejectsBadLabels) {
  CsrDataset data = EmptyRows(1);
  AddRow(&data, {{0, 1.0}}, 0.5);
  EXPECT_EQ(TrainLogisticRegression(data, LrOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LogisticRegressionTest, RejectsMismatchedWarmStart) {
  const CsrDataset data = MakeSeparableDataset(10, 1);
  const std::vector<double> init = {1.0};  // The rows have 2 features.
  EXPECT_FALSE(TrainLogisticRegression(data, LrOptions{}, &init).ok());
}

TEST(LogisticRegressionTest, OffsetShiftsDecision) {
  // Featureless examples whose labels are determined by the offset.
  CsrDataset data = EmptyRows(0);
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    const double offset = rng.Bernoulli(0.5) ? 2.5 : -2.5;
    AddRow(&data, {}, offset > 0 ? 1.0 : 0.0, offset);
  }
  LrOptions options;
  options.epochs = 15;
  auto model = TrainLogisticRegression(data, options);
  ASSERT_TRUE(model.ok());
  // With offsets explaining the labels the bias stays small and the
  // training loss is far below chance level (log 2).
  EXPECT_LT(MeanLogLoss(*model, data), 0.3);
}

// --- Metrics

TEST(MetricsTest, PerfectClassifier) {
  std::vector<ScoredLabel> scored = {{1.0, true}, {2.0, true}, {-1.0, false}, {-0.5, false}};
  const BinaryMetrics m = ComputeBinaryMetrics(scored);
  EXPECT_EQ(m.true_positives, 2);
  EXPECT_EQ(m.true_negatives, 2);
  EXPECT_DOUBLE_EQ(m.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.f1(), 1.0);
  EXPECT_DOUBLE_EQ(ComputeAuc(scored), 1.0);
}

TEST(MetricsTest, ConfusionMatrixCells) {
  std::vector<ScoredLabel> scored = {
      {1.0, true},    // TP
      {1.0, false},   // FP
      {-1.0, true},   // FN
      {-1.0, false},  // TN
  };
  const BinaryMetrics m = ComputeBinaryMetrics(scored);
  EXPECT_EQ(m.true_positives, 1);
  EXPECT_EQ(m.false_positives, 1);
  EXPECT_EQ(m.false_negatives, 1);
  EXPECT_EQ(m.true_negatives, 1);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(m.precision(), 0.5);
  EXPECT_DOUBLE_EQ(m.recall(), 0.5);
}

TEST(MetricsTest, EmptyMetricsAreZero) {
  const BinaryMetrics m = ComputeBinaryMetrics({});
  EXPECT_EQ(m.total(), 0);
  EXPECT_EQ(m.accuracy(), 0.0);
  EXPECT_EQ(m.f1(), 0.0);
}

TEST(MetricsTest, MergeAddsCells) {
  BinaryMetrics a;
  a.true_positives = 3;
  a.false_negatives = 1;
  BinaryMetrics b;
  b.true_positives = 2;
  b.true_negatives = 4;
  const BinaryMetrics merged = MergeMetrics(a, b);
  EXPECT_EQ(merged.true_positives, 5);
  EXPECT_EQ(merged.false_negatives, 1);
  EXPECT_EQ(merged.true_negatives, 4);
}

TEST(MetricsTest, AucHandlesTies) {
  // All scores equal: AUC must be exactly 0.5 via the tie correction.
  std::vector<ScoredLabel> scored = {{0.0, true}, {0.0, false}, {0.0, true}, {0.0, false}};
  EXPECT_DOUBLE_EQ(ComputeAuc(scored), 0.5);
}

TEST(MetricsTest, AucSingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(ComputeAuc({{1.0, true}, {2.0, true}}), 0.5);
  EXPECT_DOUBLE_EQ(ComputeAuc({}), 0.5);
}

TEST(MetricsTest, AucOrderingProperty) {
  // A reversed classifier has AUC = 1 - AUC of the original.
  std::vector<ScoredLabel> scored = {{0.9, true}, {0.8, false}, {0.7, true}, {0.1, false}};
  std::vector<ScoredLabel> reversed;
  for (auto s : scored) reversed.push_back({-s.score, s.label});
  EXPECT_NEAR(ComputeAuc(scored) + ComputeAuc(reversed), 1.0, 1e-12);
}

// --- Cross-validation

TEST(CrossValidationTest, FoldsPartitionIndices) {
  // 103 examples in 35 groups: 34 of three, one of one.
  std::vector<int64_t> groups(103);
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = static_cast<int64_t>(i / 3);
  auto folds = MakeGroupedKFolds(groups, 10, 7);
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds->size(), 10u);
  std::vector<int> seen(103, 0);
  for (const auto& fold : *folds) {
    EXPECT_EQ(fold.train_indices.size() + fold.test_indices.size(), 103u);
    std::set<int64_t> test_groups;
    for (size_t idx : fold.test_indices) {
      ++seen[idx];
      test_groups.insert(groups[idx]);
    }
    // Groups are dealt round-robin: 35 over 10 folds is 3 or 4 per fold.
    EXPECT_GE(test_groups.size(), 3u);
    EXPECT_LE(test_groups.size(), 4u);
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(CrossValidationTest, TrainAndTestDisjoint) {
  // Interleaved group ids, so a group's members are not contiguous.
  std::vector<int64_t> groups(50);
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = static_cast<int64_t>(i % 17);
  auto folds = MakeGroupedKFolds(groups, 5, 3);
  ASSERT_TRUE(folds.ok());
  for (const auto& fold : *folds) {
    ASSERT_TRUE(std::is_sorted(fold.train_indices.begin(), fold.train_indices.end()));
    for (size_t test_idx : fold.test_indices) {
      EXPECT_FALSE(std::binary_search(fold.train_indices.begin(), fold.train_indices.end(),
                                      test_idx));
    }
  }
}

TEST(CrossValidationTest, InvalidArguments) {
  EXPECT_FALSE(MakeGroupedKFolds({0, 1, 2}, 1, 0).ok());    // k < 2.
  EXPECT_FALSE(MakeGroupedKFolds({0, 1, 2}, 4, 0).ok());    // k > groups.
  EXPECT_FALSE(MakeGroupedKFolds({1, 1, 1}, 2, 0).ok());    // One group.
  EXPECT_FALSE(MakeGroupedKFolds({}, 2, 0).ok());           // No examples.
  EXPECT_TRUE(MakeGroupedKFolds({7, 7, 3, 3}, 2, 0).ok());  // k == groups.
}

TEST(CrossValidationTest, GroupedKeepsGroupsTogether) {
  // 12 examples in 6 groups of 2.
  std::vector<int64_t> groups = {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5};
  auto folds = MakeGroupedKFolds(groups, 3, 13);
  ASSERT_TRUE(folds.ok());
  for (const auto& fold : *folds) {
    // Every group is entirely in train or entirely in test.
    for (int64_t g = 0; g < 6; ++g) {
      int in_test = 0;
      for (size_t idx : fold.test_indices) in_test += groups[idx] == g ? 1 : 0;
      EXPECT_TRUE(in_test == 0 || in_test == 2) << "group " << g;
    }
  }
}

TEST(CrossValidationTest, DeterministicForSeed) {
  std::vector<int64_t> groups(40);
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = static_cast<int64_t>(i / 2);
  auto a = MakeGroupedKFolds(groups, 4, 99);
  auto b = MakeGroupedKFolds(groups, 4, 99);
  auto other_seed = MakeGroupedKFolds(groups, 4, 100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(other_seed.ok());
  bool seed_matters = false;
  for (size_t f = 0; f < a->size(); ++f) {
    EXPECT_EQ((*a)[f].test_indices, (*b)[f].test_indices);
    EXPECT_EQ((*a)[f].train_indices, (*b)[f].train_indices);
    seed_matters |= (*a)[f].test_indices != (*other_seed)[f].test_indices;
  }
  EXPECT_TRUE(seed_matters);
}

}  // namespace
}  // namespace microbrowse
