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

/// Matching strategy — kGreedyStats is the paper's algorithm; the others
/// exist for the ablation bench.
enum class MatchingStrategy {
  kGreedyStats,   ///< Greedy by DB frequency / strength, then locality.
  kFirstMatch,    ///< Naive first-come pairing in token order.
  kPositionOnly,  ///< Greedy by locality and span length only (no DB).
};

/// Rewrite-matching configuration.
struct RewriteMatchOptions {
  int max_ngram = 3;
  MatchingStrategy strategy = MatchingStrategy::kGreedyStats;
  /// Tokens of shared context annexed on each side of a diff region before
  /// candidates are enumerated. Rewrites between phrases that share tokens
  /// ("find cheap" -> "find deals on") leave only fragments in the raw
  /// token diff; the expanded window lets the matcher recover the full
  /// phrase pair.
  int context_expansion = 2;
};

/// Computes the rewrite decomposition of the pair (r, s). `db` may be null
/// (phase-one matching); it is only consulted by kGreedyStats.
PairDiff MatchRewrites(const Snippet& r, const Snippet& s, const FeatureStatsDb* db,
                       const RewriteMatchOptions& options = {});

/// MatchRewrites with the pair's token dictionary, `tokens` =
/// PairTokens(r, s), built by the caller so that it can reuse it.
PairDiff MatchRewrites(const Snippet& r, const Snippet& s, const PairTokens& tokens,
                       const FeatureStatsDb* db, const RewriteMatchOptions& options = {});

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_REWRITE_H_
