// Copyright 2026 The Microbrowse Authors

#include "occurrence_reference.h"

#include <string>
#include <string_view>

#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

/// The string-keyed feature recipe: full n-grams, diff-only terms, matched
/// rewrites (with the rewrite_min_support backoff and the
/// drop_matched_rewrites ablation) and the leftover terms. Calls
/// `fn(t_key, p_key, sign)` once per feature occurrence, in a fixed order;
/// `p_key` is null for positionless occurrences.
template <typename Fn>
void ForEachPairFeature(const Snippet& first, const Snippet& second, const FeatureStatsDb& db,
                        const ClassifierConfig& config, Fn&& fn) {
  std::string p_key;
  auto emit_term = [&](const Snippet& snippet, const TermSpan& span, double sign,
                       bool conjunction) {
    const std::string text = snippet.SpanText(span);
    if (!config.use_position) {
      fn(TermKey(text), nullptr, sign);
    } else if (conjunction) {
      fn(TermConjunctionKey(text, MakePositionKey(span)), nullptr, sign);
    } else {
      p_key = TermPositionKey(MakePositionKey(span));
      fn(TermKey(text), &p_key, sign);
    }
  };
  auto add_term = [&](const Snippet& snippet, const TermSpan& span, double sign) {
    emit_term(snippet, span, sign, config.leftover_position_conjunction);
  };
  // Emits every 1..max_ngram sub-gram of a span, mirroring the granularity
  // of the full term extraction (a single span-level feature would be far
  // sparser than the n-gram features the term models see).
  auto add_span_ngrams = [&](const Snippet& snippet, const TermSpan& span, double sign) {
    for (const TermSpan& sub :
         ExtractNGramsInWindow(snippet, span.line, span.pos, span.len, config.max_ngram)) {
      add_term(snippet, sub, sign);
    }
  };

  if (config.use_term_features && !config.diff_terms_only) {
    for (const TermSpan& span : ExtractNGrams(first, config.max_ngram)) {
      emit_term(first, span, +1.0, config.term_position_conjunction);
    }
    for (const TermSpan& span : ExtractNGrams(second, config.max_ngram)) {
      emit_term(second, span, -1.0, config.term_position_conjunction);
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
    for (const TermSpan& span : diff.r_only) add_term(first, span, +1.0);
    for (const TermSpan& span : diff.s_only) add_term(second, span, -1.0);
  }
  if (!config.use_rewrite_features) return;
  for (const RewriteMatch& rewrite : diff.rewrites) {
    // Raw direction: second's phrase rewritten into first's phrase.
    const SignedKey key =
        RewriteKey(second.SpanText(rewrite.s_span), first.SpanText(rewrite.r_span));
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
  for (const TermSpan& span : diff.r_only) add_term(first, span, +1.0);
  for (const TermSpan& span : diff.s_only) add_term(second, span, -1.0);
}

/// Warm start of a T feature: its log odds in the statistics database.
double InitialT(std::string_view key, const FeatureStatsDb& db, const ClassifierConfig& config) {
  return config.init_from_stats ? db.LogOdds(key) : 0.0;
}

/// Warm start of a P feature: its odds ratio (neutral = 1).
double InitialP(std::string_view key, const FeatureStatsDb& db, const ClassifierConfig& config) {
  return config.init_from_stats ? db.OddsRatio(key) : 1.0;
}

}  // namespace

void ReferenceExtractPairOccurrences(const Snippet& first, const Snippet& second,
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

}  // namespace microbrowse
