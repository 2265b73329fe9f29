// Copyright 2026 The Microbrowse Authors

#include "microbrowse/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "microbrowse/checkpoint.h"
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

/// Pipeline-stage metrics, cached once. Trained/resumed counts are added
/// as per-run aggregates from the single-threaded driver; fold seconds are
/// recorded per fold (one sample per trained fold, so the sample *count*
/// is thread-count invariant even though the timings are not).
struct CvMetrics {
  Counter* runs = MetricRegistry::Global().GetCounter("mb.cv.runs");
  Counter* folds_trained = MetricRegistry::Global().GetCounter("mb.cv.folds_trained");
  Counter* folds_resumed = MetricRegistry::Global().GetCounter("mb.cv.folds_resumed");
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

  // Labels (and the fold split) depend only on the corpus and seed, so the
  // shared and per-fold paths agree on which pairs land in which fold.
  std::vector<bool> labels;
  labels.reserve(corpus.pairs.size());
  {
    Rng rng(options.seed);
    for (const SnippetPair& pair : corpus.pairs) {
      const bool swap = rng.Bernoulli(0.5);
      const double first_sw = swap ? pair.s.serve_weight : pair.r.serve_weight;
      const double second_sw = swap ? pair.r.serve_weight : pair.s.serve_weight;
      labels.push_back(first_sw > second_sw);
    }
  }
  Result<std::vector<CvFold>> folds_result =
      options.group_folds_by_adgroup
          ? [&] {
              std::vector<int64_t> groups;
              groups.reserve(corpus.pairs.size());
              for (const SnippetPair& pair : corpus.pairs) groups.push_back(pair.adgroup_id);
              return MakeGroupedKFolds(groups, options.folds, options.seed ^ 0x5f5f5f5fULL);
            }()
          : MakeStratifiedKFolds(labels, options.folds, options.seed ^ 0x5f5f5f5fULL);
  if (!folds_result.ok()) return folds_result.status();
  const std::vector<CvFold>& folds = *folds_result;

  // Open (or resume) the checkpoint directory before any expensive work, so
  // a settings mismatch fails fast.
  std::unique_ptr<CvCheckpoint> checkpoint;
  if (!options.checkpoint_dir.empty()) {
    MB_ASSIGN_OR_RETURN(
        CvCheckpoint opened,
        CvCheckpoint::Open(options.checkpoint_dir,
                           CvCheckpoint::Fingerprint(corpus.pairs.size(), config, options)));
    checkpoint = std::make_unique<CvCheckpoint>(std::move(opened));
  }
  // Checkpoint writes ride the retry wrapper: a transient I/O failure (the
  // kind fault injection simulates) should not cost a finished fold.
  const auto save_fold = [&checkpoint](size_t f,
                                       const std::vector<ScoredLabel>& scored) -> Status {
    if (checkpoint == nullptr) return Status::OK();
    return RetryWithBackoff([&] { return checkpoint->SaveFoldScores(f, scored); });
  };

  std::vector<ScoredLabel> all_scored;
  all_scored.reserve(corpus.pairs.size());
  const BuildStatsOptions stats_options = ThreadedStats(options);

  if (!options.per_fold_stats) {
    FeatureStatsDb db;
    bool stats_resumed = false;
    if (checkpoint != nullptr) {
      MB_ASSIGN_OR_RETURN(stats_resumed, checkpoint->LoadStats(&db));
    }
    if (!stats_resumed) {
      db = BuildFeatureStats(corpus, stats_options);
      if (checkpoint != nullptr) {
        MB_RETURN_IF_ERROR(RetryWithBackoff([&] { return checkpoint->SaveStats(db); }));
      }
    }
    const CoupledDataset dataset = BuildClassifierDataset(corpus, db, config, options.seed);
    report.num_t_features = dataset.t_registry.size();
    report.num_p_features = dataset.p_registry.size();
    // Flatten once; every fold trains and scores against the same CSR
    // view (DESIGN.md section 11).
    const CoupledCsr csr = FlattenCoupledDataset(dataset);
    // Folds are independent given the shared dataset; train them across
    // the pool and splice the per-fold scores back in fold order so the
    // result is identical for any thread count.
    std::vector<std::vector<ScoredLabel>> fold_scores(folds.size());
    std::vector<Status> fold_status(folds.size());
    std::vector<char> fold_resumed(folds.size(), 0);
    if (checkpoint != nullptr) {
      for (size_t f = 0; f < folds.size(); ++f) {
        MB_ASSIGN_OR_RETURN(const bool resumed, checkpoint->LoadFoldScores(f, &fold_scores[f]));
        fold_resumed[f] = resumed ? 1 : 0;
      }
    }
    {
      ThreadPool pool(static_cast<size_t>(std::max(1, options.num_threads)));
      MB_RETURN_IF_ERROR(pool.ParallelFor(folds.size(), [&](size_t f) {
        if (fold_resumed[f]) return;
        // The fold failpoint fires only for folds that actually train, so
        // an interrupted-then-resumed run re-trains exactly the missing
        // folds.
        fold_status[f] = failpoint::Check("pipeline.fold");
        if (!fold_status[f].ok()) return;
        // Span and timing sample per trained fold: one each regardless of
        // which pool worker picks the fold up.
        TraceSpan fold_span("mb.cv.fold");
        WallTimer fold_timer;
        auto model = TrainSnippetClassifier(csr, config, folds[f].train_indices);
        if (!model.ok()) {
          fold_status[f] = model.status();
          return;
        }
        ScoreFold(csr, *model, folds[f].test_indices, &fold_scores[f]);
        GetCvMetrics().fold_seconds->Record(fold_timer.ElapsedSeconds());
        fold_status[f] = save_fold(f, fold_scores[f]);
      }));
    }
    int64_t resumed_count = 0;
    for (size_t f = 0; f < folds.size(); ++f) {
      MB_RETURN_IF_ERROR(fold_status[f]);
      resumed_count += fold_resumed[f] ? 1 : 0;
      all_scored.insert(all_scored.end(), fold_scores[f].begin(), fold_scores[f].end());
    }
    GetCvMetrics().folds_resumed->Increment(resumed_count);
    GetCvMetrics().folds_trained->Increment(static_cast<int64_t>(folds.size()) - resumed_count);
  } else {
    for (size_t f = 0; f < folds.size(); ++f) {
      const CvFold& fold = folds[f];
      std::vector<ScoredLabel> fold_scored;
      bool resumed = false;
      if (checkpoint != nullptr) {
        MB_ASSIGN_OR_RETURN(resumed, checkpoint->LoadFoldScores(f, &fold_scored));
      }
      // The fold's statistics database and dataset are (re)built whether
      // or not its scores were resumed: the feature counts reported below
      // come from the dataset registries, and skipping the build for
      // resumed folds used to leave num_t_features / num_p_features at
      // zero on an all-resumed rerun (see PerFoldStatsResumeReportsFeatureCounts).
      PairCorpus train_corpus;
      train_corpus.pairs.reserve(fold.train_indices.size());
      for (size_t idx : fold.train_indices) train_corpus.pairs.push_back(corpus.pairs[idx]);
      const FeatureStatsDb db = BuildFeatureStats(train_corpus, stats_options);
      const CoupledDataset dataset = BuildClassifierDataset(corpus, db, config, options.seed);
      report.num_t_features = dataset.t_registry.size();
      report.num_p_features = dataset.p_registry.size();
      if (!resumed) {
        MB_FAILPOINT("pipeline.fold");
        TraceSpan fold_span("mb.cv.fold");
        WallTimer fold_timer;
        const CoupledCsr fold_csr = FlattenCoupledDataset(dataset);
        auto model = TrainSnippetClassifier(fold_csr, config, fold.train_indices);
        if (!model.ok()) return model.status();
        ScoreFold(fold_csr, *model, fold.test_indices, &fold_scored);
        GetCvMetrics().fold_seconds->Record(fold_timer.ElapsedSeconds());
        MB_RETURN_IF_ERROR(save_fold(f, fold_scored));
        GetCvMetrics().folds_trained->Increment(1);
      } else {
        GetCvMetrics().folds_resumed->Increment(1);
      }
      all_scored.insert(all_scored.end(), fold_scored.begin(), fold_scored.end());
    }
  }

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
