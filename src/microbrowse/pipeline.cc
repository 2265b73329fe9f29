// Copyright 2026 The Microbrowse Authors

#include "microbrowse/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "microbrowse/feature_keys.h"
#include "ml/cross_validation.h"

namespace microbrowse {

namespace {

/// Evaluates `model` on the test indices, appending scored labels. Traced
/// as its own span so that a fold's time splits into training and scoring.
void ScoreFold(const CoupledCsr& csr, const SnippetClassifierModel& model,
               const std::vector<size_t>& test_indices, std::vector<ScoredLabel>* scored) {
  TraceSpan span("mb.cv.score");
  for (size_t idx : test_indices) {
    scored->push_back(ScoredLabel{model.ScoreRow(csr, idx), csr.labels[idx] > 0.5});
  }
}

/// Copies the stats-build options with the thread count raised to
/// options.train_threads.
BuildStatsOptions ThreadedStats(const PipelineOptions& options) {
  BuildStatsOptions stats = options.stats;
  stats.num_threads = std::max(stats.num_threads, options.train_threads);
  return stats;
}

/// Pipeline-stage metrics, cached once. The trained count is added as a
/// per-run aggregate from the single-threaded driver; fold seconds are
/// recorded per fold (one sample per fold, so the sample *count* is
/// thread-count invariant even though the timings are not).
struct CvMetrics {
  Counter* runs = MetricRegistry::Global().GetCounter("mb.cv.runs");
  Counter* folds_trained = MetricRegistry::Global().GetCounter("mb.cv.folds_trained");
  ShardedHistogram* fold_seconds = MetricRegistry::Global().GetHistogram("mb.cv.fold_seconds");
};

CvMetrics& GetCvMetrics() {
  static CvMetrics metrics;
  return metrics;
}

}  // namespace

Result<ModelReport> RunPairClassificationCv(const PairCorpus& corpus,
                                            const ClassifierConfig& config,
                                            const PipelineOptions& options) {
  if (corpus.pairs.empty()) {
    return Status::InvalidArgument("RunPairClassificationCv: empty pair corpus");
  }
  TraceSpan run_span("mb.cv.run");
  GetCvMetrics().runs->Increment(1);
  WallTimer timer;
  ModelReport report;
  report.model_name = config.name;

  std::vector<int64_t> groups;
  groups.reserve(corpus.pairs.size());
  for (const SnippetPair& pair : corpus.pairs) groups.push_back(pair.adgroup_id);
  MB_ASSIGN_OR_RETURN(const std::vector<CvFold> folds,
                      MakeGroupedKFolds(groups, options.folds, options.seed ^ 0x5f5f5f5fULL));

  const FeatureStatsDb db = BuildFeatureStats(corpus, ThreadedStats(options));
  const CoupledDataset dataset = BuildClassifierDataset(corpus, db, config, options.seed);
  report.num_t_features = dataset.t_registry.size();
  report.num_p_features = dataset.p_registry.size();
  // Flatten once; every fold trains and scores against the same CSR view
  // (DESIGN.md section 11).
  const CoupledCsr csr = FlattenCoupledDataset(dataset);
  // Folds are independent given the shared dataset; train them across the
  // pool and splice the per-fold scores back in fold order so the result
  // is identical for any thread count. A failed fold fails the run, so the
  // pool starts no fold once one has failed.
  std::vector<std::vector<ScoredLabel>> fold_scores(folds.size());
  {
    ThreadPool pool(static_cast<size_t>(std::max(1, options.num_threads)));
    MB_RETURN_IF_ERROR(pool.ParallelForFallible(folds.size(), [&](size_t f) -> Status {
      MB_RETURN_IF_ERROR(failpoint::Check("pipeline.fold"));
      // Span and timing sample per fold: one each regardless of which pool
      // worker picks the fold up.
      TraceSpan fold_span("mb.cv.fold");
      WallTimer fold_timer;
      MB_ASSIGN_OR_RETURN(const SnippetClassifierModel model,
                          TrainSnippetClassifier(csr, config, folds[f].train_indices));
      ScoreFold(csr, model, folds[f].test_indices, &fold_scores[f]);
      GetCvMetrics().fold_seconds->Record(fold_timer.ElapsedSeconds());
      return Status::OK();
    }));
  }
  std::vector<ScoredLabel> all_scored;
  all_scored.reserve(corpus.pairs.size());
  for (const std::vector<ScoredLabel>& scores : fold_scores) {
    all_scored.insert(all_scored.end(), scores.begin(), scores.end());
  }
  GetCvMetrics().folds_trained->Increment(static_cast<int64_t>(folds.size()));

  report.metrics =
      ComputeBinaryMetrics(all_scored, /*threshold=*/0.0, std::max(1, options.train_threads));
  report.auc = ComputeAuc(all_scored, std::max(1, options.train_threads));
  report.train_seconds = timer.ElapsedSeconds();
  return report;
}

Result<PositionWeightReport> LearnPositionWeights(const PairCorpus& corpus,
                                                  const ClassifierConfig& config,
                                                  const PipelineOptions& options) {
  if (!config.use_position) {
    return Status::InvalidArgument("LearnPositionWeights: config must use positions");
  }
  if (corpus.pairs.empty()) {
    return Status::InvalidArgument("LearnPositionWeights: empty pair corpus");
  }
  const FeatureStatsDb db = BuildFeatureStats(corpus, ThreadedStats(options));
  CoupledDataset dataset = BuildClassifierDataset(corpus, db, config, options.seed);
  // Anchor the position factor at zero rather than at its odds-ratio
  // initialisation: the L2 penalty of the P phase then shrinks positions
  // with little evidence toward "not examined" instead of toward the
  // neutral multiplier, which is the interpretable convention for the
  // learned-weights plot (positions the data says nothing about read as
  // invisible, exactly like Figure 3 of the paper).
  for (FeatureId id = 0; id < dataset.p_registry.size(); ++id) {
    dataset.p_registry.SetInitialWeight(id, 0.0);
  }
  auto model = TrainSnippetClassifier(dataset, config);
  if (!model.ok()) return model.status();

  PositionWeightReport report;
  report.term_position_weights.assign(
      kMaxLineBucket + 1,
      std::vector<double>(kMaxPosBucket + 1, std::numeric_limits<double>::quiet_NaN()));
  for (int line = 0; line <= kMaxLineBucket; ++line) {
    for (int bucket = 0; bucket <= kMaxPosBucket; ++bucket) {
      const FeatureId id =
          dataset.p_registry.Find(TermPositionKey(PositionKey{line, bucket}));
      if (id != kInvalidFeatureId && id < model->p_weights.size()) {
        report.term_position_weights[line][bucket] = model->p_weights[id];
      }
    }
  }
  return report;
}

}  // namespace microbrowse
