// Copyright 2026 The Microbrowse Authors

#include "microbrowse/ctr_predictor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "microbrowse/feature_keys.h"
#include "text/ngram.h"

namespace microbrowse {

CtrPredictor::CtrPredictor(const SnippetClassifierModel& model,
                           const FeatureRegistry& t_registry,
                           const FeatureRegistry& p_registry, const FeatureStatsDb* db,
                           CtrPredictorOptions options)
    : model_(&model), t_registry_(&t_registry), db_(db), options_(options) {
  for (int line = 0; line <= kMaxLineBucket; ++line) {
    for (int bucket = 0; bucket <= kMaxPosBucket; ++bucket) {
      const PositionKey position{line, bucket};
      const FeatureId id = p_registry.Find(TermPositionKey(position));
      visibility_[TermPositionIndex(position)] =
          id != kInvalidFeatureId && id < model.p_weights.size()
              ? model.p_weights[id]
              : options_.fallback_curve.Probability(line, bucket);
    }
  }
}

double CtrPredictor::SpanScore(const Snippet& snippet, const TermSpan& span,
                               FeatureKeyBuffer* key) const {
  // Prefer the positioned conjunction weight when the model has one;
  // otherwise the plain term weight times the learned visibility.
  const FeatureId conj = t_registry_->Find(key->TermConjunction(snippet, span));
  if (conj != kInvalidFeatureId && conj < model_->t_weights.size() &&
      model_->t_weights[conj] != 0.0) {
    return model_->t_weights[conj];
  }
  double term_weight = 0.0;
  const pack::HashedKey term_key(key->Term(snippet, span));  // Hashed once for both lookups.
  const FeatureId plain = t_registry_->Find(term_key);
  if (plain != kInvalidFeatureId && plain < model_->t_weights.size()) {
    term_weight = model_->t_weights[plain];
  } else if (db_ != nullptr) {
    term_weight = db_->LogOdds(term_key);
  }
  return term_weight * visibility_[TermPositionIndex(MakePositionKey(span))];
}

double CtrPredictor::Score(const Snippet& snippet) const {
  double score = 0.0;
  thread_local FeatureKeyBuffer key;  // Reused, so grown buffers are not reallocated.
  // ExtractNGrams' spans, in its order, without storing them.
  for (int line = 0; line < snippet.num_lines(); ++line) {
    const int line_size = static_cast<int>(snippet.line(line).size());
    for (int pos = 0; pos < line_size; ++pos) {
      for (int len = 1; len <= std::min(kMaxNgram, line_size - pos); ++len) {
        score += SpanScore(snippet, TermSpan{line, pos, len}, &key);
      }
    }
  }
  return score;
}

std::vector<size_t> CtrPredictor::Rank(const std::vector<Snippet>& snippets) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(snippets.size());
  for (size_t i = 0; i < snippets.size(); ++i) {
    scored.emplace_back(Score(snippets[i]), i);
  }
  std::stable_sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  std::vector<size_t> order;
  order.reserve(scored.size());
  for (const auto& [score, index] : scored) order.push_back(index);
  return order;
}

Result<ExaminationCurve> FitExaminationCurve(
    const std::vector<std::vector<double>>& position_weights, double peak) {
  // Model: log w(line, pos) = a_line + pos * log(decay). Least squares with
  // a shared slope and per-line intercepts.
  struct Point {
    size_t line;
    double pos;
    double log_weight;
  };
  std::vector<Point> points;
  for (size_t line = 0; line < position_weights.size(); ++line) {
    for (size_t pos = 0; pos < position_weights[line].size(); ++pos) {
      const double w = position_weights[line][pos];
      if (std::isfinite(w) && w > 1e-6) {
        points.push_back({line, static_cast<double>(pos), std::log(w)});
      }
    }
  }
  if (points.size() < 3) {
    return Status::InvalidArgument("FitExaminationCurve: need >= 3 positive weights");
  }
  const size_t lines = position_weights.size();

  // Profile out the intercepts: for a fixed slope b, the optimal intercept
  // of a line is mean(log w - b * pos) over its points; the optimal slope
  // solves a 1-d least squares over the centred data.
  std::vector<double> pos_mean(lines, 0.0), logw_mean(lines, 0.0);
  std::vector<int> count(lines, 0);
  for (const Point& point : points) {
    pos_mean[point.line] += point.pos;
    logw_mean[point.line] += point.log_weight;
    ++count[point.line];
  }
  for (size_t l = 0; l < lines; ++l) {
    if (count[l] > 0) {
      pos_mean[l] /= count[l];
      logw_mean[l] /= count[l];
    }
  }
  double sxy = 0.0, sxx = 0.0;
  for (const Point& point : points) {
    const double x = point.pos - pos_mean[point.line];
    const double y = point.log_weight - logw_mean[point.line];
    sxy += x * y;
    sxx += x * x;
  }
  const double slope = sxx > 1e-12 ? sxy / sxx : 0.0;
  // Clamp to a meaningful decay in (0, 1].
  const double decay = std::clamp(std::exp(slope), 0.05, 1.0);
  // The intercepts that fit the slope the curve uses, clamped or not: with
  // the raw slope, a clamped fit would skew each base by its line's mean
  // position.
  const double used_slope = std::log(decay);

  std::vector<double> bases(lines, 0.0);
  double max_base = 0.0;
  for (size_t l = 0; l < lines; ++l) {
    bases[l] = count[l] > 0 ? std::exp(logw_mean[l] - used_slope * pos_mean[l]) : 0.0;
    max_base = std::max(max_base, bases[l]);
  }
  if (max_base <= 0.0) {
    return Status::Internal("FitExaminationCurve: degenerate fit");
  }
  for (double& base : bases) base = base / max_base * peak;
  return ExaminationCurve(std::move(bases), decay, /*floor=*/1e-4);
}

}  // namespace microbrowse
