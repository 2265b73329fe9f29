// Copyright 2026 The Microbrowse Authors
//
// Tests for the ML substrate: sparse vectors, the feature registry,
// logistic regression, metrics and cross-validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/cross_validation.h"
#include "ml/csr.h"
#include "ml/dataset.h"
#include "ml/feature_registry.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/sparse_vector.h"

namespace microbrowse {
namespace {

// --- SparseVector

TEST(SparseVectorTest, FinishSortsAndMerges) {
  SparseVector v;
  v.Add(3, 1.0);
  v.Add(1, 2.0);
  v.Add(3, 0.5);
  v.Finish();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.entries()[0], (FeatureEntry{1, 2.0}));
  EXPECT_EQ(v.entries()[1], (FeatureEntry{3, 1.5}));
}

TEST(SparseVectorTest, CancellingContributionsVanish) {
  SparseVector v;
  v.Add(5, 1.0);
  v.Add(5, -1.0);
  v.Add(6, 2.0);
  v.Finish();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.entries()[0].id, 6u);
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector v;
  v.Add(0, 2.0);
  v.Add(2, -1.0);
  v.Finish();
  EXPECT_DOUBLE_EQ(v.Dot({1.0, 10.0, 3.0}), 2.0 - 3.0);
  // Ids beyond the weight vector contribute zero.
  EXPECT_DOUBLE_EQ(v.Dot({1.0}), 2.0);
  EXPECT_DOUBLE_EQ(v.Dot({}), 0.0);
}

TEST(SparseVectorTest, SquaredNorm) {
  SparseVector v;
  v.Add(0, 3.0);
  v.Add(1, 4.0);
  v.Finish();
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
}

TEST(SparseVectorTest, FinishIsIdempotent) {
  SparseVector v;
  v.Add(1, 1.0);
  v.Finish();
  v.Finish();
  EXPECT_EQ(v.size(), 1u);
}

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

/// A linearly separable 2-feature dataset: label = (x0 > x1).
Dataset MakeSeparableDataset(int n, uint64_t seed) {
  Dataset data;
  data.num_features = 2;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Example example;
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    example.features.Add(0, x0);
    example.features.Add(1, x1);
    example.features.Finish();
    example.label = x0 > x1 ? 1.0 : 0.0;
    data.examples.push_back(std::move(example));
  }
  return data;
}

double Accuracy(const LogisticModel& model, const Dataset& data) {
  int correct = 0;
  for (const auto& example : data.examples) {
    correct += (model.PredictLabel(example.features) == (example.label > 0.5)) ? 1 : 0;
  }
  return static_cast<double>(correct) / data.size();
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  const Dataset data = MakeSeparableDataset(2000, 5);
  LrOptions options;
  options.epochs = 60;
  options.l1 = 1e-5;
  options.tolerance = 0.0;
  auto model = TrainLogisticRegression(data, options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(Accuracy(*model, data), 0.95);
  // Weight signs match the generating rule.
  EXPECT_GT(model->weights()[0], 0.0);
  EXPECT_LT(model->weights()[1], 0.0);
}

TEST(LogisticRegressionTest, StrongL1ZeroesIrrelevantFeatures) {
  Dataset data = MakeSeparableDataset(2000, 9);
  data.num_features = 4;
  Rng rng(10);
  for (auto& example : data.examples) {
    example.features.Add(2, rng.Uniform(-1.0, 1.0));  // Pure noise features.
    example.features.Add(3, rng.Uniform(-1.0, 1.0));
    example.features.Finish();
  }
  LrOptions options;
  options.epochs = 40;
  options.l1 = 0.05;
  auto model = TrainLogisticRegression(data, options);
  ASSERT_TRUE(model.ok());
  // The informative weights survive the penalty; noise weights are tiny.
  EXPECT_GT(std::fabs(model->weights()[0]), 5.0 * std::fabs(model->weights()[2]));
  EXPECT_GT(std::fabs(model->weights()[1]), 5.0 * std::fabs(model->weights()[3]));
}

TEST(LogisticRegressionTest, WarmStartIsUsedWithZeroEpochs) {
  const Dataset data = MakeSeparableDataset(100, 5);
  LrOptions options;
  options.epochs = 0;
  const std::vector<double> init = {3.0, -3.0};
  auto model = TrainLogisticRegression(data, options, &init);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->weights(), init);
  EXPECT_GT(Accuracy(*model, data), 0.95);
}

TEST(LogisticRegressionTest, RejectsEmptyDataset) {
  EXPECT_FALSE(TrainLogisticRegression(Dataset{}, LrOptions{}).ok());
}

TEST(LogisticRegressionTest, RejectsBadLabels) {
  Dataset data;
  data.num_features = 1;
  Example example;
  example.features.Add(0, 1.0);
  example.features.Finish();
  example.label = 0.5;
  data.examples.push_back(example);
  EXPECT_EQ(TrainLogisticRegression(data, LrOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LogisticRegressionTest, RejectsMismatchedWarmStart) {
  const Dataset data = MakeSeparableDataset(10, 1);
  const std::vector<double> init = {1.0};  // Dataset has 2 features.
  EXPECT_FALSE(TrainLogisticRegression(data, LrOptions{}, &init).ok());
}

TEST(LogisticRegressionTest, OffsetShiftsDecision) {
  // Featureless examples whose labels are determined by the offset.
  Dataset data;
  data.num_features = 0;
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    Example example;
    example.offset = rng.Bernoulli(0.5) ? 2.5 : -2.5;
    example.label = example.offset > 0 ? 1.0 : 0.0;
    data.examples.push_back(example);
  }
  LrOptions options;
  options.epochs = 15;
  auto model = TrainLogisticRegression(data, options);
  ASSERT_TRUE(model.ok());
  // With offsets explaining the labels the bias stays small and the
  // training loss is far below chance level (log 2).
  EXPECT_LT(model->MeanLogLoss(data), 0.3);
}

TEST(LogisticRegressionTest, PredictProbabilityIsCalibratedShape) {
  LogisticModel model({1.0}, 0.0);
  SparseVector positive;
  positive.Add(0, 5.0);
  positive.Finish();
  SparseVector negative;
  negative.Add(0, -5.0);
  negative.Finish();
  EXPECT_GT(model.PredictProbability(positive), 0.99);
  EXPECT_LT(model.PredictProbability(negative), 0.01);
}

TEST(LogisticRegressionTest, NumZeroWeights) {
  LogisticModel model({0.0, 1.0, 0.0}, 0.2);
  EXPECT_EQ(model.num_zero_weights(), 2u);
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

TEST(MetricsTest, MeanLogLoss) {
  EXPECT_NEAR(ComputeMeanLogLoss({{0.5, true}, {0.5, false}}), std::log(2.0), 1e-12);
  EXPECT_NEAR(ComputeMeanLogLoss({{1.0, true}}), 0.0, 1e-9);
  EXPECT_EQ(ComputeMeanLogLoss({}), 0.0);
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

// --- Dataset helpers

TEST(DatasetTest, SubsetCopiesSelected) {
  Dataset data;
  data.num_features = 1;
  for (int i = 0; i < 5; ++i) {
    Example example;
    example.label = i % 2;
    data.examples.push_back(example);
  }
  const Dataset subset = data.Subset({0, 2, 4});
  EXPECT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset.num_features, 1u);
  EXPECT_EQ(subset.num_positives(), 0u);
  EXPECT_EQ(data.Subset({1, 3}).num_positives(), 2u);
}

// --- CSR layout

TEST(CsrTest, FlattenDatasetRoundTrip) {
  Dataset data;
  data.num_features = 5;
  {
    Example example;
    example.features.Add(3, 1.5);
    example.features.Add(0, -2.0);
    example.features.Finish();
    example.label = 1.0;
    example.weight = 2.0;
    example.offset = 0.25;
    data.examples.push_back(std::move(example));
  }
  {
    Example example;  // Empty row: no features.
    example.label = 0.0;
    data.examples.push_back(std::move(example));
  }
  {
    Example example;
    example.features.Add(4, 3.0);
    example.features.Finish();
    example.label = 1.0;
    data.examples.push_back(std::move(example));
  }

  const CsrDataset csr = FlattenDataset(data);
  ASSERT_EQ(csr.size(), 3u);
  EXPECT_EQ(csr.num_features, 5u);
  EXPECT_EQ(csr.num_entries(), 3u);
  ASSERT_EQ(csr.row_offsets, (std::vector<size_t>{0, 2, 2, 3}));
  EXPECT_EQ(csr.ids, (std::vector<FeatureId>{0, 3, 4}));
  EXPECT_EQ(csr.values, (std::vector<double>{-2.0, 1.5, 3.0}));
  EXPECT_EQ(csr.labels, (std::vector<double>{1.0, 0.0, 1.0}));
  EXPECT_EQ(csr.weights, (std::vector<double>{2.0, 1.0, 1.0}));
  EXPECT_EQ(csr.offsets, (std::vector<double>{0.25, 0.0, 0.0}));

  // RowScore must agree exactly with the SparseVector path.
  const std::vector<double> weights = {0.5, 0.0, 0.0, -1.0, 2.0};
  for (size_t i = 0; i < data.size(); ++i) {
    const double expected =
        data.examples[i].features.Dot(weights) + data.examples[i].offset + 0.125;
    EXPECT_EQ(csr.RowScore(i, weights, 0.125), expected) << "row " << i;
  }
  // Ids beyond the weight vector contribute zero, matching SparseVector::Dot.
  EXPECT_EQ(csr.RowScore(2, {}, 0.0), 0.0);
}

TEST(CsrTest, CsrTrainingMatchesDatasetTraining) {
  const Dataset data = MakeSeparableDataset(500, 17);
  LrOptions options;
  options.epochs = 20;
  auto via_dataset = TrainLogisticRegression(data, options);
  auto via_csr = TrainLogisticRegression(FlattenDataset(data), options);
  ASSERT_TRUE(via_dataset.ok());
  ASSERT_TRUE(via_csr.ok());
  EXPECT_EQ(via_dataset->weights(), via_csr->weights());
  EXPECT_EQ(via_dataset->bias(), via_csr->bias());
}

}  // namespace
}  // namespace microbrowse
