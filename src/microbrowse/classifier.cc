// Copyright 2026 The Microbrowse Authors

#include "microbrowse/classifier.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>

#include "common/trace.h"
#include "microbrowse/feature_keys.h"
#include "ml/csr.h"
#include "ml/logistic_regression.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

/// Optimiser for the relevance factor T (and for plain models).
LrOptions DefaultTLr() {
  LrOptions options;
  options.l1 = 2e-3;
  options.l2 = 1e-6;
  options.learning_rate = 0.15;
  options.epochs = 12;
  return options;
}

/// Optimiser for the position factor P.
LrOptions DefaultPLr() {
  LrOptions options;
  // The P phase trains the *delta* against the stats-database init (see
  // BuildPCsr), so regularisation pulls toward the init, not zero:
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

Result<ClassifierConfig> ClassifierConfig::ByName(std::string_view name) {
  for (ClassifierConfig& config : AllPaperModels()) {
    if (config.name == name) return std::move(config);
  }
  return Status::InvalidArgument("unknown model type '" + std::string(name) +
                                 "' (expected M1..M6)");
}

namespace {

/// Position index of a positionless occurrence.
constexpr int kNoPosition = -1;

/// ForEachPairFeature's buffers, kept per thread and reused from pair to
/// pair: once they have grown, spelling a pair's T keys and listing its
/// n-grams allocates nothing.
struct PairFeatureScratch {
  FeatureKeyBuffer t_keys;
  std::vector<TermSpan> grams;

  /// Most bytes of n-grams kept after a pair; an outsized pair's list is
  /// released, so one such request does not pin its memory.
  static constexpr size_t kKeepBytes = size_t{1} << 18;
};

/// ForEachPairFeature (below) in the buffers of `scratch`.
template <typename Fn>
void ForEachPairFeatureIn(PairFeatureScratch& scratch, const Snippet& first,
                          const Snippet& second, const FeatureStatsDb& db,
                          const ClassifierConfig& config, Fn&& fn) {
  FeatureKeyBuffer& t_keys = scratch.t_keys;
  auto emit_term = [&](const Snippet& snippet, const TermSpan& span, double sign,
                       bool conjunction) {
    if (!config.use_position) {
      fn(t_keys.Term(snippet, span), kNoPosition, sign);
    } else if (conjunction) {
      fn(t_keys.TermConjunction(snippet, span), kNoPosition, sign);
    } else {
      fn(t_keys.Term(snippet, span), TermPositionIndex(MakePositionKey(span)), sign);
    }
  };
  auto add_term = [&](const Snippet& snippet, const TermSpan& span, double sign) {
    emit_term(snippet, span, sign, config.leftover_position_conjunction);
  };

  if (config.use_term_features) {
    std::vector<TermSpan>& grams = scratch.grams;
    for (const Snippet* snippet : {&first, &second}) {
      const double sign = snippet == &first ? +1.0 : -1.0;
      grams.clear();
      grams.reserve(NumNGrams(*snippet, kMaxNgram));
      for (int line = 0; line < snippet->num_lines(); ++line) {
        const int line_size = static_cast<int>(snippet->line(line).size());
        AppendNGramsInWindow(*snippet, line, 0, line_size, kMaxNgram, &grams);
      }
      for (const TermSpan& span : grams) {
        emit_term(*snippet, span, sign, config.term_position_conjunction);
      }
    }
  }
  if (!config.use_rewrite_features) return;

  const PairDiff diff = MatchRewrites(first, second, &db);
  for (const RewriteMatch& rewrite : diff.rewrites) {
    // Raw direction: second's phrase rewritten into first's phrase.
    double sign = 0.0;
    const std::string_view key =
        t_keys.Rewrite(second, rewrite.s_span, first, rewrite.r_span, &sign);
    fn(key,
       config.use_position ? RewritePositionIndex(MakePositionKey(rewrite.r_span),
                                                  MakePositionKey(rewrite.s_span))
                           : kNoPosition,
       sign);
  }
  for (const TermSpan& span : diff.r_only) add_term(first, span, +1.0);
  for (const TermSpan& span : diff.s_only) add_term(second, span, -1.0);
}

/// The one recipe that turns an ordered pair (first, second) into
/// classifier features: full n-grams, matched rewrites and the leftover
/// terms. Calls `fn(t_key, p_index, sign)` once per feature occurrence, in
/// a fixed order: `p_index` is the position index of the occurrence's P
/// key (feature_keys.h), or kNoPosition. The T
/// key is a view into a buffer reused from occurrence to occurrence, valid
/// only during the call; a consumer spells a P key from its index
/// (FeatureKeyBuffer::Position) only when it needs the text. Both
/// consumers — ExtractPairOccurrences (interns) and PredictPairMargin (only
/// reads) — see exactly the same sequence. `fn` must not call back in.
template <typename Fn>
void ForEachPairFeature(const Snippet& first, const Snippet& second, const FeatureStatsDb& db,
                        const ClassifierConfig& config, Fn&& fn) {
  thread_local PairFeatureScratch scratch;
  ForEachPairFeatureIn(scratch, first, second, db, config, fn);
  if (scratch.grams.capacity() * sizeof(TermSpan) > PairFeatureScratch::kKeepBytes) {
    std::vector<TermSpan>().swap(scratch.grams);
  }
}

/// Warm start of a T feature: its log odds in the statistics database.
double InitialT(const pack::HashedKey& key, const FeatureStatsDb& db) {
  return db.LogOdds(key);
}

/// Warm start of a P feature: its odds ratio (neutral = 1).
double InitialP(const pack::HashedKey& key, const FeatureStatsDb& db) {
  return db.OddsRatio(key);
}

/// The weight rule: a feature's trained weight when the model has one, its
/// registry warm start when it was interned after training, and its
/// statistics warm start (`initial(key, db)`) when the registry does not
/// know it. The key is hashed at most once for both lookups.
template <typename Initial>
double WeightOf(const FeatureRegistry& registry, const std::vector<double>& trained,
                std::string_view text, Initial&& initial, const FeatureStatsDb& db) {
  const pack::HashedKey key(text);
  const FeatureId id = registry.Find(key);
  if (id == kInvalidFeatureId) return initial(key, db);
  return id < trained.size() ? trained[id] : registry.InitialWeightOf(id);
}

/// A value per position index, computed by `resolve(index)` the first time
/// the index is asked for and remembered for the rest of a pair: a pair's
/// ~65 P occurrences hold only ~20 distinct keys, and each costs a spelled
/// key and a registry probe.
template <typename Value>
class PositionMemo {
 public:
  template <typename Resolve>
  Value Get(int index, Resolve&& resolve) {
    if (!filled_[index]) {
      filled_.set(index);
      values_[index] = resolve(index);
    }
    return values_[index];
  }

 private:
  std::bitset<kNumPositionIndexes> filled_;
  std::array<Value, kNumPositionIndexes> values_;  // Read only where filled_.
};

}  // namespace

void ExtractPairOccurrences(const Snippet& first, const Snippet& second,
                            const FeatureStatsDb& db, const ClassifierConfig& config,
                            FeatureRegistry* t_registry, FeatureRegistry* p_registry,
                            std::vector<CoupledOccurrence>* occurrences) {
  // The warm start is a statistics lookup, so it is computed only for a
  // key the registry does not know yet, which is then inserted without a
  // second probe.
  auto intern = [&](FeatureRegistry* registry, std::string_view text, auto&& initial) {
    const pack::HashedKey key(text);
    const FeatureId id = registry->Find(key);
    return id != kInvalidFeatureId ? id : registry->InternNew(text, initial(key, db));
  };
  // A P key is interned where it first occurs, as it would be if every
  // occurrence were looked up, so ids and interning order are unchanged.
  FeatureKeyBuffer p_key;
  PositionMemo<FeatureId> p_ids;
  auto p_id = [&](int index) { return intern(p_registry, p_key.Position(index), InitialP); };
  ForEachPairFeature(first, second, db, config,
                     [&](std::string_view t_key, int p_index, double sign) {
                       CoupledOccurrence occ;
                       occ.t = intern(t_registry, t_key, InitialT);
                       if (p_index != kNoPosition) occ.p = p_ids.Get(p_index, p_id);
                       occ.sign = sign;
                       occurrences->push_back(occ);
                     });
}

double PredictPairMargin(const Snippet& first, const Snippet& second, const FeatureStatsDb& db,
                         const ClassifierConfig& config, const SnippetClassifierModel& model,
                         const FeatureRegistry& t_registry, const FeatureRegistry& p_registry) {
  FeatureKeyBuffer p_key;
  PositionMemo<double> p_weights;
  auto p_weight = [&](int index) {
    return WeightOf(p_registry, model.p_weights, p_key.Position(index), InitialP, db);
  };
  double score = model.bias;
  ForEachPairFeature(first, second, db, config,
                     [&](std::string_view t_key, int p_index, double sign) {
                       const double t =
                           WeightOf(t_registry, model.t_weights, t_key, InitialT, db);
                       const double p =
                           p_index == kNoPosition ? 1.0 : p_weights.Get(p_index, p_weight);
                       score += sign * p * t;
                     });
  return score;
}

CoupledDataset BuildClassifierDataset(const PairCorpus& corpus, const FeatureStatsDb& db,
                                      const ClassifierConfig& config, uint64_t seed) {
  TraceSpan span("mb.dataset.build");
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
  TraceSpan span("mb.csr.flatten");
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

/// One accumulated (feature, value) contribution to a phase row.
struct FeatureEntry {
  FeatureId id = 0;
  double value = 0.0;
};

/// Finishes one accumulated row into `out`: sorts the entries by id, sums
/// each run of equal ids in that order, and keeps only the non-zero sums,
/// so a row holds each feature at most once and never with value zero.
/// The sums run in a fixed order, so a phase row is a function of the
/// occurrences alone.
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
    auto trained = TrainLogisticRegression(t_data, DefaultTLr(), &model.t_weights);
    if (!trained.ok()) return trained.status();
    model.t_weights = trained->weights;
    model.bias = trained->bias;
    return model;
  }

  // Eq. 9, position factor first: P is fit against the statistics-
  // database-calibrated T, then T is retrained consistently with that P.
  // (Ending on the T phase also keeps the bias consistent with the final
  // factor pairing.) Further alternation lets estimation noise feed back
  // between the factors (EXPERIMENTS.md, "Ablations").
  const std::vector<double>& p_init = csr.p_init;
  if (!p_init.empty()) {
    const CsrDataset p_data = BuildPCsr(csr, indices, model.t_weights, p_init, model.bias);
    std::vector<double> p_delta(p_init.size(), 0.0);
    auto p_trained = TrainLogisticRegression(p_data, DefaultPLr(), &p_delta);
    if (!p_trained.ok()) return p_trained.status();
    p_delta = p_trained->weights;
    for (size_t j = 0; j < p_init.size(); ++j) model.p_weights[j] = p_init[j] + p_delta[j];
  }

  const CsrDataset t_data = BuildTCsr(csr, indices, model.p_weights);
  auto t_trained = TrainLogisticRegression(t_data, DefaultTLr(), &model.t_weights);
  if (!t_trained.ok()) return t_trained.status();
  model.t_weights = t_trained->weights;
  model.bias = t_trained->bias;
  return model;
}

}  // namespace microbrowse
