// Copyright 2026 The Microbrowse Authors
//
// Token-level diff between two snippet lines. The rewrite-feature extractor
// (Section IV-A of the paper) first localizes the regions where a pair of
// creatives differ; phrase-rewrite candidates are then enumerated inside
// those regions.

#ifndef MICROBROWSE_TEXT_DIFF_H_
#define MICROBROWSE_TEXT_DIFF_H_

#include <span>
#include <string>
#include <vector>

#include "text/pair_tokens.h"

namespace microbrowse {

/// One maximal region of disagreement between token sequences A and B:
/// tokens [a_pos, a_pos + a_len) of A were replaced by tokens
/// [b_pos, b_pos + b_len) of B. Either length (but not both) may be zero,
/// representing a pure deletion or insertion.
struct DiffHunk {
  int a_pos = 0;
  int a_len = 0;
  int b_pos = 0;
  int b_len = 0;

  friend bool operator==(const DiffHunk& x, const DiffHunk& y) {
    return x.a_pos == y.a_pos && x.a_len == y.a_len && x.b_pos == y.b_pos && x.b_len == y.b_len;
  }
};

/// One LCS-matched token pair: a[a_index] == b[b_index].
struct TokenMatch {
  int a_index = 0;
  int b_index = 0;

  friend bool operator==(const TokenMatch& x, const TokenMatch& y) {
    return x.a_index == y.a_index && x.b_index == y.b_index;
  }
};

/// Computes the minimal (LCS-based) hunk list turning `a` into `b`.
/// Adjacent delete/insert runs are merged into single replace hunks. The
/// result is ordered by position and hunks never overlap. When `matches`
/// is non-null it receives the aligned token pairs (the LCS itself), in
/// order.
std::vector<DiffHunk> TokenDiff(const std::vector<std::string>& a,
                                const std::vector<std::string>& b,
                                std::vector<TokenMatch>* matches = nullptr);

/// TokenDiff over per-pair token ids (text/pair_tokens.h), which are equal
/// exactly when their tokens are: the same hunks and matches as TokenDiff
/// on the tokens themselves. Appends to `hunks` and (when non-null)
/// `matches`, and keeps the LCS table in `table`, so a caller diffing line
/// after line reuses one allocation.
void AppendTokenDiff(std::span<const TokenId> a, std::span<const TokenId> b,
                     std::vector<int>* table, std::vector<DiffHunk>* hunks,
                     std::vector<TokenMatch>* matches);

/// Length of the longest common subsequence of `a` and `b`.
int LcsLength(const std::vector<std::string>& a, const std::vector<std::string>& b);

}  // namespace microbrowse

#endif  // MICROBROWSE_TEXT_DIFF_H_
