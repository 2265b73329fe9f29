// Copyright 2026 The Microbrowse Authors
//
// Per-pair token dictionary. Everything the rewrite matcher and the term
// statistics ask of two snippets' tokens is equality: is this phrase the
// same text as that one? PairTokens answers it with integers. Every
// distinct token of the two snippets R and S gets a dense id by exact
// string equality, so two phrases have equal text exactly when their id
// tuples are equal (no token contains a space; see text/snippet.h).
//
// The ids are local to one pair and carry no order: comparing two ids says
// nothing about how their texts sort. Callers that need text order (the
// canonical rewrite key) compare the spelled texts.

#ifndef MICROBROWSE_TEXT_PAIR_TOKENS_H_
#define MICROBROWSE_TEXT_PAIR_TOKENS_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "text/snippet.h"

namespace microbrowse {

/// Dense id of a token within one PairTokens.
using TokenId = uint32_t;

/// The two snippets of a pair.
enum class PairSide { kR = 0, kS = 1 };

/// A token's piece of a phrase's side hash (PhraseHash): its byte-wise
/// FNV-1a, left unmixed because the fold and the tables keyed by it mix.
inline uint64_t TokenHashPiece(std::string_view token) { return Fnv1a64(token); }

/// Folds the next token's piece into a phrase hash; a phrase's hash starts
/// at its first token's piece.
inline uint64_t FoldPhraseHash(uint64_t hash, uint64_t piece) { return HashCombine(hash, piece); }

/// Hash of a phrase's text, from its space-separated tokens' pieces.
/// Splitting at every space inverts the join, so for a span of a snippet
/// this equals the fold of its tokens' pieces that PairTokens computes.
/// One pass over the bytes: the statistics database runs it on both sides
/// of every rewrite key when it builds its filter at load.
uint64_t PhraseHash(std::string_view text);

/// Token ids of a snippet pair (R, S). Lines are stored flat, R's first:
/// token `pos` of line `line` of a side sits at Offset(side, line) + pos
/// in a numbering of every token position of both snippets.
class PairTokens {
 public:
  /// The dictionary of no pair; Reset makes it one.
  PairTokens() = default;
  PairTokens(const Snippet& r, const Snippet& s) { Reset(r, s); }

  /// Rebuilds the dictionary for the pair (r, s), reusing the buffers of
  /// the previous one, so a caller that keeps one PairTokens per thread
  /// allocates nothing once they have grown.
  void Reset(const Snippet& r, const Snippet& s);

  /// Ids of line `line` of `side`; empty for a line past the snippet's end.
  std::span<const TokenId> Line(PairSide side, int line) const {
    const std::vector<uint32_t>& begin = line_begin_[static_cast<int>(side)];
    if (static_cast<size_t>(line) + 1 >= begin.size()) return {};
    return {ids_.data() + begin[line], begin[line + 1] - begin[line]};
  }

  /// Flat position of the first token of `side`'s line `line`.
  uint32_t Offset(PairSide side, int line) const {
    return line_begin_[static_cast<int>(side)][line];
  }

  /// Ids of `span`, a span of `side`'s snippet.
  const TokenId* SpanIds(PairSide side, const TermSpan& span) const {
    return ids_.data() + Offset(side, span.line) + span.pos;
  }

  /// PhraseHash of `span`'s text, from its tokens' pieces.
  uint64_t SpanHash(PairSide side, const TermSpan& span) const {
    const TokenId* ids = SpanIds(side, span);
    uint64_t hash = pieces_[ids[0]];
    for (int i = 1; i < span.len; ++i) hash = FoldPhraseHash(hash, pieces_[ids[i]]);
    return hash;
  }

  /// Token positions of both snippets.
  size_t num_positions() const { return ids_.size(); }
  /// Distinct tokens of both snippets.
  size_t num_ids() const { return pieces_.size(); }

 private:
  std::vector<TokenId> ids_;
  std::vector<uint32_t> line_begin_[2];  ///< Per side: num_lines + 1 offsets.
  std::vector<uint64_t> pieces_;         ///< TokenHashPiece by id.
  // Reset's working buffers: open addressing over the token pieces, where
  // a slot holds id + 1 (0 = empty) and first_[id] is the token that id
  // was given to, for the exact compare.
  std::vector<TokenId> slots_;
  std::vector<const std::string*> first_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_TEXT_PAIR_TOKENS_H_
