// Copyright 2026 The Microbrowse Authors
//
// The statistics build as it stood before non-final passes were narrowed
// to rewrite keys, kept as a test-only reference: every pass accumulates
// term, term-position, rewrite and position-pair keys, on one thread. Its
// keys are spelled with the printf format strings they were first written
// with, and its matching is the string-based reference matcher
// (rewrite_reference.h), so the production key builders and matcher are
// checked along the way. The production BuildFeatureStats must reproduce
// its (key, positive, total) set exactly; see stats_reference_test.cc.

#include "stats_reference.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/string_util.h"
#include "microbrowse/feature_keys.h"
#include "rewrite_reference.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

std::string TermPositionKeyPrintf(const PositionKey& position) {
  return StrFormat("p:%d:%d", position.line, position.bucket);
}

std::string TermConjunctionKeyPrintf(std::string_view text, const PositionKey& position) {
  return StrFormat("tp:%.*s@%d:%d", static_cast<int>(text.size()), text.data(), position.line,
                   position.bucket);
}

SignedKey RewriteKeyPrintf(std::string_view from, std::string_view to) {
  SignedKey out;
  if (to < from) {
    out.key = StrFormat("rw:%.*s=>%.*s", static_cast<int>(to.size()), to.data(),
                        static_cast<int>(from.size()), from.data());
    out.sign = -1.0;
  } else {
    out.key = StrFormat("rw:%.*s=>%.*s", static_cast<int>(from.size()), from.data(),
                        static_cast<int>(to.size()), to.data());
    out.sign = 1.0;
  }
  return out;
}

std::string RewritePositionKeyPrintf(const PositionKey& r_pos, const PositionKey& s_pos) {
  return StrFormat("pp:%d:%d=>%d:%d", r_pos.line, r_pos.bucket, s_pos.line, s_pos.bucket);
}

/// Set of n-gram texts in a snippet.
std::unordered_set<std::string> NGramTexts(const Snippet& snippet) {
  std::unordered_set<std::string> texts;
  for (const TermSpan& span : ExtractNGrams(snippet)) {
    texts.insert(snippet.SpanText(span));
  }
  return texts;
}

/// Records term and term-position-conjunction observations for every
/// n-gram of `snippet` whose text is absent from `other_texts`.
void ObserveUniqueTerms(const Snippet& snippet,
                        const std::unordered_set<std::string>& other_texts, int delta,
                        FeatureStatsDb* out) {
  std::unordered_set<std::string> seen;
  for (const TermSpan& span : ExtractNGrams(snippet)) {
    const std::string text = snippet.SpanText(span);
    if (other_texts.count(text) != 0) continue;
    if (seen.insert(text).second) {
      out->AddObservation(TermKey(text), delta);
    }
    out->AddObservation(TermConjunctionKeyPrintf(text, MakePositionKey(span)), delta);
  }
}

/// One accumulation pass over the whole corpus into `out`.
void AccumulateAll(const PairCorpus& corpus, const FeatureStatsDb* matching_db,
                   FeatureStatsDb* out) {
  for (const SnippetPair& pair : corpus.pairs) {
    const int delta = pair.delta_sw();

    const auto r_texts = NGramTexts(pair.r.snippet);
    const auto s_texts = NGramTexts(pair.s.snippet);
    ObserveUniqueTerms(pair.r.snippet, s_texts, delta, out);
    ObserveUniqueTerms(pair.s.snippet, r_texts, -delta, out);

    const PairDiff diff = ReferenceMatchRewrites(pair.r.snippet, pair.s.snippet, matching_db);
    for (const RewriteMatch& rewrite : diff.rewrites) {
      const SignedKey key = RewriteKeyPrintf(pair.s.snippet.SpanText(rewrite.s_span),
                                             pair.r.snippet.SpanText(rewrite.r_span));
      out->AddObservation(key.key, static_cast<int>(key.sign) * delta);

      const PositionKey r_pos = MakePositionKey(rewrite.r_span);
      const PositionKey s_pos = MakePositionKey(rewrite.s_span);
      if (!(r_pos == s_pos)) {
        out->AddObservation(RewritePositionKeyPrintf(r_pos, s_pos), delta);
      }
    }
    for (const TermSpan& span : diff.r_only) {
      out->AddObservation(TermPositionKeyPrintf(MakePositionKey(span)), delta);
    }
    for (const TermSpan& span : diff.s_only) {
      out->AddObservation(TermPositionKeyPrintf(MakePositionKey(span)), -delta);
    }
  }
}

}  // namespace

FeatureStatsDb ReferenceBuildFeatureStats(const PairCorpus& corpus,
                                          const BuildStatsOptions& options) {
  FeatureStatsDb first;
  first.set_smoothing(kStatsSmoothing);
  first.set_min_count(options.min_count);
  AccumulateAll(corpus, nullptr, &first);
  FeatureStatsDb db;
  db.set_smoothing(kStatsSmoothing);
  db.set_min_count(options.min_count);
  AccumulateAll(corpus, &first, &db);
  return db;
}

}  // namespace microbrowse
