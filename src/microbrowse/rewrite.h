// Copyright 2026 The Microbrowse Authors
//
// Rewrite matching (Section IV-A). Given a creative pair (R, S), localize
// the differing regions with a token diff, enumerate candidate phrase
// pairs, and greedily match them using scores from the feature-statistics
// database — the intuition being that a frequently observed rewrite like
// "find cheap" -> "get discounts" outranks an incidental alignment like
// "find cheap" -> "flying". Unmatched residue becomes term-level features.

#ifndef MICROBROWSE_MICROBROWSE_REWRITE_H_
#define MICROBROWSE_MICROBROWSE_REWRITE_H_

#include <vector>

#include "microbrowse/stats_db.h"
#include "text/pair_tokens.h"
#include "text/snippet.h"

namespace microbrowse {

/// One matched phrase rewrite: `r_span` in R corresponds to `s_span` in S.
/// For a pure move the two spans have identical text.
struct RewriteMatch {
  TermSpan r_span;
  TermSpan s_span;

  friend bool operator==(const RewriteMatch& a, const RewriteMatch& b) {
    return a.r_span == b.r_span && a.s_span == b.s_span;
  }
};

/// The diff decomposition of a creative pair.
struct PairDiff {
  std::vector<RewriteMatch> rewrites;
  /// N-grams over the differing tokens of R left unmatched.
  std::vector<TermSpan> r_only;
  /// N-grams over the differing tokens of S left unmatched.
  std::vector<TermSpan> s_only;

  bool empty() const { return rewrites.empty() && r_only.empty() && s_only.empty(); }
};

/// Computes the rewrite decomposition of the pair (r, s), matching
/// candidates greedily by their statistics in `db`, then by locality and
/// span length. `db` may be null (the first stats pass's matching).
PairDiff MatchRewrites(const Snippet& r, const Snippet& s, const FeatureStatsDb* db);

/// MatchRewrites with the pair's token dictionary, `tokens` =
/// PairTokens(r, s), built by the caller so that it can reuse it.
PairDiff MatchRewrites(const Snippet& r, const Snippet& s, const PairTokens& tokens,
                       const FeatureStatsDb* db);

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_REWRITE_H_
