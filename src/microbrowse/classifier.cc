// Copyright 2026 The Microbrowse Authors

#include "microbrowse/classifier.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>

#include "microbrowse/feature_keys.h"
#include "ml/csr.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

LrOptions DefaultTLr() {
  LrOptions options;
  options.solver = LrSolver::kAdaGrad;
  options.l1 = 2e-3;
  options.l2 = 1e-6;
  options.learning_rate = 0.15;
  options.epochs = 12;
  return options;
}

LrOptions DefaultPLr() {
  LrOptions options;
  options.solver = LrSolver::kAdaGrad;
  // The P phase trains the *delta* against the stats-database init (see
  // BuildPDataset), so regularisation pulls toward the init, not zero:
  // no L1 (the position space is tiny and dense), moderate L2.
  options.l1 = 0.0;
  options.l2 = 0.02;
  options.learning_rate = 0.1;
  options.epochs = 8;
  options.fit_bias = false;  // The T phase owns the bias.
  return options;
}

ClassifierConfig BaseConfig(std::string name) {
  ClassifierConfig config;
  config.name = std::move(name);
  config.lr = DefaultTLr();
  config.position_lr = DefaultPLr();
  return config;
}

}  // namespace

ClassifierConfig ClassifierConfig::M1() {
  ClassifierConfig config = BaseConfig("M1");
  config.use_term_features = true;
  config.use_rewrite_features = false;
  config.use_position = false;
  return config;
}

ClassifierConfig ClassifierConfig::M2() {
  ClassifierConfig config = BaseConfig("M2");
  config.use_term_features = true;
  config.use_rewrite_features = false;
  config.use_position = true;
  config.term_position_conjunction = true;
  return config;
}

ClassifierConfig ClassifierConfig::M3() {
  ClassifierConfig config = BaseConfig("M3");
  config.use_term_features = false;
  config.use_rewrite_features = true;
  config.use_position = false;
  return config;
}

ClassifierConfig ClassifierConfig::M4() {
  ClassifierConfig config = BaseConfig("M4");
  config.use_term_features = false;
  config.use_rewrite_features = true;
  config.use_position = true;
  config.leftover_position_conjunction = true;  // Leftover terms mirror M2.
  return config;
}

ClassifierConfig ClassifierConfig::M5() {
  ClassifierConfig config = BaseConfig("M5");
  config.use_term_features = true;
  config.use_rewrite_features = true;
  config.use_position = false;
  return config;
}

ClassifierConfig ClassifierConfig::M6() {
  ClassifierConfig config = BaseConfig("M6");
  config.use_term_features = true;
  config.use_rewrite_features = true;
  config.use_position = true;
  config.term_position_conjunction = true;  // The term part mirrors M2.
  return config;
}

std::vector<ClassifierConfig> ClassifierConfig::AllPaperModels() {
  return {M1(), M2(), M3(), M4(), M5(), M6()};
}

namespace {

/// The one recipe that turns an ordered pair (first, second) into
/// classifier features: full n-grams, diff-only terms, matched rewrites
/// (with the rewrite_min_support backoff and the drop_matched_rewrites
/// ablation) and the leftover terms. Calls `fn(t_key, p_key, sign)` once per
/// feature occurrence, in a fixed order; `p_key` is null for positionless
/// occurrences. Both consumers — ExtractPairOccurrences (interns) and
/// PredictPairMargin (only reads) — see exactly the same sequence.
template <typename Fn>
void ForEachPairFeature(const Snippet& first, const Snippet& second, const FeatureStatsDb& db,
                        const ClassifierConfig& config, Fn&& fn) {
  std::string p_key;
  auto emit_term = [&](const TermSpan& span, double sign, bool conjunction) {
    if (!config.use_position) {
      fn(TermKey(span.text), nullptr, sign);
    } else if (conjunction) {
      fn(TermConjunctionKey(span.text, MakePositionKey(span)), nullptr, sign);
    } else {
      p_key = TermPositionKey(MakePositionKey(span));
      fn(TermKey(span.text), &p_key, sign);
    }
  };
  auto add_term = [&](const TermSpan& span, double sign) {
    emit_term(span, sign, config.leftover_position_conjunction);
  };
  // Emits every 1..max_ngram sub-gram of a span, mirroring the granularity
  // of the full term extraction (a single span-level feature would be far
  // sparser than the n-gram features the term models see).
  auto add_span_ngrams = [&](const Snippet& snippet, const TermSpan& span, double sign) {
    for (const TermSpan& sub :
         ExtractNGramsInWindow(snippet, span.line, span.pos, span.len, config.max_ngram)) {
      add_term(sub, sign);
    }
  };

  if (config.use_term_features && !config.diff_terms_only) {
    for (const TermSpan& span : ExtractNGrams(first, config.max_ngram)) {
      emit_term(span, +1.0, config.term_position_conjunction);
    }
    for (const TermSpan& span : ExtractNGrams(second, config.max_ngram)) {
      emit_term(span, -1.0, config.term_position_conjunction);
    }
  }
  const bool diff_terms = config.use_term_features && config.diff_terms_only;
  if (!diff_terms && !config.use_rewrite_features) return;

  RewriteMatchOptions match_options;
  match_options.max_ngram = config.max_ngram;
  match_options.strategy = config.matching;
  const PairDiff diff = MatchRewrites(first, second, &db, match_options);
  if (diff_terms) {
    for (const RewriteMatch& rewrite : diff.rewrites) {
      add_span_ngrams(first, rewrite.r_span, +1.0);
      add_span_ngrams(second, rewrite.s_span, -1.0);
    }
    for (const TermSpan& span : diff.r_only) add_term(span, +1.0);
    for (const TermSpan& span : diff.s_only) add_term(span, -1.0);
  }
  if (!config.use_rewrite_features) return;
  for (const RewriteMatch& rewrite : diff.rewrites) {
    // Raw direction: second's phrase rewritten into first's phrase.
    const SignedKey key = RewriteKey(rewrite.s_span.text, rewrite.r_span.text);
    const bool thin =
        config.rewrite_min_support > 0 && db.Count(key.key) < config.rewrite_min_support;
    if (config.drop_matched_rewrites || thin) {
      // Decompose the matched pair into signed term occurrences: always
      // under the drop_matched_rewrites ablation, and for tail rewrites
      // below the support threshold (the per-phrase term statistics are
      // far denser than the quadratic rewrite space).
      add_span_ngrams(first, rewrite.r_span, +1.0);
      add_span_ngrams(second, rewrite.s_span, -1.0);
      continue;
    }
    if (config.use_position) {
      p_key = RewritePositionKey(MakePositionKey(rewrite.r_span),
                                 MakePositionKey(rewrite.s_span));
      fn(key.key, &p_key, key.sign);
    } else {
      fn(key.key, nullptr, key.sign);
    }
  }
  for (const TermSpan& span : diff.r_only) add_term(span, +1.0);
  for (const TermSpan& span : diff.s_only) add_term(span, -1.0);
}

/// Warm start of a T feature: its log odds in the statistics database.
double InitialT(std::string_view key, const FeatureStatsDb& db, const ClassifierConfig& config) {
  return config.init_from_stats ? db.LogOdds(key) : 0.0;
}

/// Warm start of a P feature: its odds ratio (neutral = 1).
double InitialP(std::string_view key, const FeatureStatsDb& db, const ClassifierConfig& config) {
  return config.init_from_stats ? db.OddsRatio(key) : 1.0;
}

/// The weight rule: a feature's trained weight when the model has one, its
/// registry warm start when it was interned after training, and its
/// statistics warm start (`initial(key)`) when the registry does not know it.
template <typename Initial>
double WeightOf(const FeatureRegistry& registry, const std::vector<double>& trained,
                std::string_view key, Initial&& initial) {
  const FeatureId id = registry.Find(key);
  if (id == kInvalidFeatureId) return initial(key);
  return id < trained.size() ? trained[id] : registry.InitialWeightOf(id);
}

}  // namespace

void ExtractPairOccurrences(const Snippet& first, const Snippet& second,
                            const FeatureStatsDb& db, const ClassifierConfig& config,
                            FeatureRegistry* t_registry, FeatureRegistry* p_registry,
                            std::vector<CoupledOccurrence>* occurrences) {
  ForEachPairFeature(first, second, db, config,
                     [&](const std::string& t_key, const std::string* p_key, double sign) {
                       CoupledOccurrence occ;
                       occ.t = t_registry->Intern(t_key, InitialT(t_key, db, config));
                       if (p_key != nullptr) {
                         occ.p = p_registry->Intern(*p_key, InitialP(*p_key, db, config));
                       }
                       occ.sign = sign;
                       occurrences->push_back(occ);
                     });
}

double PredictPairMargin(const Snippet& first, const Snippet& second, const FeatureStatsDb& db,
                         const ClassifierConfig& config, const SnippetClassifierModel& model,
                         const FeatureRegistry& t_registry, const FeatureRegistry& p_registry) {
  double score = model.bias;
  ForEachPairFeature(
      first, second, db, config,
      [&](const std::string& t_key, const std::string* p_key, double sign) {
        const double t = WeightOf(t_registry, model.t_weights, t_key,
                                  [&](std::string_view key) { return InitialT(key, db, config); });
        double p = 1.0;
        if (p_key != nullptr) {
          p = WeightOf(p_registry, model.p_weights, *p_key,
                       [&](std::string_view key) { return InitialP(key, db, config); });
        }
        score += sign * p * t;
      });
  return score;
}

CoupledDataset BuildClassifierDataset(const PairCorpus& corpus, const FeatureStatsDb& db,
                                      const ClassifierConfig& config, uint64_t seed) {
  CoupledDataset dataset;
  dataset.examples.reserve(corpus.pairs.size());
  Rng rng(seed);
  for (const SnippetPair& pair : corpus.pairs) {
    const bool swap = rng.Bernoulli(0.5);
    const SnippetObservation& first = swap ? pair.s : pair.r;
    const SnippetObservation& second = swap ? pair.r : pair.s;
    CoupledExample example;
    example.label = first.serve_weight > second.serve_weight ? 1.0 : 0.0;
    ExtractPairOccurrences(first.snippet, second.snippet, db, config, &dataset.t_registry,
                           &dataset.p_registry, &example.occurrences);
    dataset.examples.push_back(std::move(example));
  }
  return dataset;
}

CoupledCsr FlattenCoupledDataset(const CoupledDataset& dataset) {
  CoupledCsr csr;
  size_t total = 0;
  for (const CoupledExample& example : dataset.examples) total += example.occurrences.size();
  csr.row_offsets.reserve(dataset.examples.size() + 1);
  csr.t_ids.reserve(total);
  csr.p_ids.reserve(total);
  csr.signs.reserve(total);
  csr.labels.reserve(dataset.examples.size());
  csr.row_offsets.push_back(0);
  for (const CoupledExample& example : dataset.examples) {
    for (const CoupledOccurrence& occ : example.occurrences) {
      csr.t_ids.push_back(occ.t);
      csr.p_ids.push_back(occ.p);
      csr.signs.push_back(occ.sign);
    }
    csr.labels.push_back(example.label);
    csr.row_offsets.push_back(csr.t_ids.size());
  }
  csr.t_init = dataset.t_registry.InitialWeights();
  csr.p_init = dataset.p_registry.InitialWeights();
  return csr;
}

double SnippetClassifierModel::ScoreRow(const CoupledCsr& csr, size_t row) const {
  double score = bias;
  const size_t end = csr.row_offsets[row + 1];
  for (size_t k = csr.row_offsets[row]; k < end; ++k) {
    const FeatureId t_id = csr.t_ids[k];
    const FeatureId p_id = csr.p_ids[k];
    const double t = t_id < t_weights.size() ? t_weights[t_id] : 0.0;
    const double p =
        p_id == kInvalidFeatureId ? 1.0 : (p_id < p_weights.size() ? p_weights[p_id] : 1.0);
    score += csr.signs[k] * p * t;
  }
  return score;
}

namespace {

/// Finishes one accumulated row into `out`, replicating
/// SparseVector::Finish exactly (sort by id, sum duplicate runs in sorted
/// order, drop zero sums) so phase datasets built here are numerically
/// identical to the historical SparseVector path.
void FinishRowInto(std::vector<FeatureEntry>* scratch, CsrDataset* out) {
  std::sort(scratch->begin(), scratch->end(),
            [](const FeatureEntry& a, const FeatureEntry& b) { return a.id < b.id; });
  size_t i = 0;
  while (i < scratch->size()) {
    const FeatureId id = (*scratch)[i].id;
    double sum = 0.0;
    while (i < scratch->size() && (*scratch)[i].id == id) {
      sum += (*scratch)[i].value;
      ++i;
    }
    if (sum != 0.0) {
      out->ids.push_back(id);
      out->values.push_back(sum);
    }
  }
  out->row_offsets.push_back(out->ids.size());
}

/// Builds the T-phase dataset in CSR form: features are T ids with value
/// sign * P[p] (or sign when positionless).
CsrDataset BuildTCsr(const CoupledCsr& coupled, const std::vector<size_t>& indices,
                     const std::vector<double>& p_values) {
  CsrDataset data;
  data.num_features = coupled.num_t_features();
  data.row_offsets.reserve(indices.size() + 1);
  data.row_offsets.push_back(0);
  std::vector<FeatureEntry> scratch;
  for (size_t idx : indices) {
    scratch.clear();
    const size_t end = coupled.row_offsets[idx + 1];
    for (size_t k = coupled.row_offsets[idx]; k < end; ++k) {
      const FeatureId p_id = coupled.p_ids[k];
      const double p = p_id == kInvalidFeatureId ? 1.0 : p_values[p_id];
      scratch.push_back(FeatureEntry{coupled.t_ids[k], coupled.signs[k] * p});
    }
    data.labels.push_back(coupled.labels[idx]);
    data.weights.push_back(1.0);
    data.offsets.push_back(0.0);
    FinishRowInto(&scratch, &data);
  }
  return data;
}

/// Builds the P-phase dataset in *delta* parameterisation: the effective
/// position factor is P = P_init + delta, so each occurrence contributes
/// sign * T * P_init to the fixed offset and exposes sign * T as the
/// feature value whose weight is delta. Regularising delta toward zero
/// (instead of P itself) anchors the factorisation at the statistics-
/// database initialisation and prevents the multiplicative scale race
/// between the P and T factors.
CsrDataset BuildPCsr(const CoupledCsr& coupled, const std::vector<size_t>& indices,
                     const std::vector<double>& t_values, const std::vector<double>& p_init,
                     double bias) {
  CsrDataset data;
  data.num_features = coupled.num_p_features();
  data.row_offsets.reserve(indices.size() + 1);
  data.row_offsets.push_back(0);
  std::vector<FeatureEntry> scratch;
  for (size_t idx : indices) {
    scratch.clear();
    double offset = bias;
    const size_t end = coupled.row_offsets[idx + 1];
    for (size_t k = coupled.row_offsets[idx]; k < end; ++k) {
      const double value = coupled.signs[k] * t_values[coupled.t_ids[k]];
      const FeatureId p_id = coupled.p_ids[k];
      if (p_id == kInvalidFeatureId) {
        offset += value;
      } else {
        offset += value * p_init[p_id];
        scratch.push_back(FeatureEntry{p_id, value});
      }
    }
    data.labels.push_back(coupled.labels[idx]);
    data.weights.push_back(1.0);
    data.offsets.push_back(offset);
    FinishRowInto(&scratch, &data);
  }
  return data;
}

}  // namespace

Result<SnippetClassifierModel> TrainSnippetClassifier(const CoupledDataset& dataset,
                                                      const ClassifierConfig& config,
                                                      const std::vector<size_t>& train_indices) {
  if (dataset.examples.empty()) {
    return Status::InvalidArgument("TrainSnippetClassifier: empty dataset");
  }
  return TrainSnippetClassifier(FlattenCoupledDataset(dataset), config, train_indices);
}

Result<SnippetClassifierModel> TrainSnippetClassifier(const CoupledCsr& csr,
                                                      const ClassifierConfig& config,
                                                      const std::vector<size_t>& train_indices) {
  if (csr.empty()) {
    return Status::InvalidArgument("TrainSnippetClassifier: empty dataset");
  }
  std::vector<size_t> indices = train_indices;
  if (indices.empty()) {
    indices.resize(csr.size());
    std::iota(indices.begin(), indices.end(), 0);
  }

  SnippetClassifierModel model;
  model.t_weights = csr.t_init;
  model.p_weights = csr.p_init;

  if (!config.use_position) {
    const CsrDataset t_data = BuildTCsr(csr, indices, model.p_weights);
    auto trained = TrainLogisticRegression(t_data, config.lr, &model.t_weights);
    if (!trained.ok()) return trained.status();
    model.t_weights = trained->weights();
    model.bias = trained->bias();
    return model;
  }

  LrOptions p_options = config.position_lr;
  p_options.fit_bias = false;  // Enforced regardless of caller settings.
  const std::vector<double>& p_init = csr.p_init;
  std::vector<double> p_delta(p_init.size(), 0.0);
  // Alternating minimisation of Eq. 9, position factor first: P is fit
  // against the statistics-database-calibrated T, then T is retrained
  // consistently with that P. (Ending on a T phase also keeps the bias
  // consistent with the final factor pairing.)
  for (int iteration = 0; iteration < std::max(1, config.coupled_iterations); ++iteration) {
    if (!p_init.empty()) {
      const CsrDataset p_data = BuildPCsr(csr, indices, model.t_weights, p_init, model.bias);
      auto p_trained = TrainLogisticRegression(p_data, p_options, &p_delta);
      if (!p_trained.ok()) return p_trained.status();
      p_delta = p_trained->weights();
      for (size_t j = 0; j < p_init.size(); ++j) model.p_weights[j] = p_init[j] + p_delta[j];
    }

    const CsrDataset t_data = BuildTCsr(csr, indices, model.p_weights);
    auto t_trained = TrainLogisticRegression(t_data, config.lr, &model.t_weights);
    if (!t_trained.ok()) return t_trained.status();
    model.t_weights = t_trained->weights();
    model.bias = t_trained->bias();
  }
  return model;
}

}  // namespace microbrowse
