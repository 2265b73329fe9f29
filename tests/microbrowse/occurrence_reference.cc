// Copyright 2026 The Microbrowse Authors

#include "occurrence_reference.h"

#include <string>
#include <string_view>

#include "microbrowse/feature_keys.h"
#include "microbrowse/rewrite.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

/// The string-keyed feature recipe: full n-grams, matched rewrites and the
/// leftover terms. Calls
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

  if (config.use_term_features) {
    for (const TermSpan& span : ExtractNGrams(first)) {
      emit_term(first, span, +1.0, config.term_position_conjunction);
    }
    for (const TermSpan& span : ExtractNGrams(second)) {
      emit_term(second, span, -1.0, config.term_position_conjunction);
    }
  }
  if (!config.use_rewrite_features) return;

  const PairDiff diff = MatchRewrites(first, second, &db);
  for (const RewriteMatch& rewrite : diff.rewrites) {
    // Raw direction: second's phrase rewritten into first's phrase.
    const SignedKey key =
        RewriteKey(second.SpanText(rewrite.s_span), first.SpanText(rewrite.r_span));
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
double InitialT(std::string_view key, const FeatureStatsDb& db) { return db.LogOdds(key); }

/// Warm start of a P feature: its odds ratio (neutral = 1).
double InitialP(std::string_view key, const FeatureStatsDb& db) { return db.OddsRatio(key); }

}  // namespace

void ReferenceExtractPairOccurrences(const Snippet& first, const Snippet& second,
                                     const FeatureStatsDb& db, const ClassifierConfig& config,
                                     FeatureRegistry* t_registry, FeatureRegistry* p_registry,
                                     std::vector<CoupledOccurrence>* occurrences) {
  ForEachPairFeature(first, second, db, config,
                     [&](const std::string& t_key, const std::string* p_key, double sign) {
                       CoupledOccurrence occ;
                       occ.t = t_registry->Intern(t_key, InitialT(t_key, db));
                       if (p_key != nullptr) {
                         occ.p = p_registry->Intern(*p_key, InitialP(*p_key, db));
                       }
                       occ.sign = sign;
                       occurrences->push_back(occ);
                     });
}

}  // namespace microbrowse
