// Copyright 2026 The Microbrowse Authors
//
// Canonical string keys for classifier features and statistics-database
// entries. Keeping every key builder in one place guarantees that the
// statistics phase and the classifier phase agree on naming, which is what
// makes warm-starting work.
//
// Key grammar:
//   term          t:<text>
//   rewrite       rw:<from>=><to>        (canonicalised, see below)
//   term position p:<line>:<bucket>
//   rewrite pos.  pp:<line>:<bucket>=><line>:<bucket>  (canonicalised)
//
// Rewrites are direction-sensitive ("find cheap" -> "get discounts" raising
// CTR means the reverse lowers it), so (from, to) pairs are canonicalised
// to lexicographic order with a sign: a feature occurrence whose raw
// direction was flipped during canonicalisation carries value -1 instead
// of +1. The same sign flips the delta-sw observation when building stats.
//
// Each side of a rewrite key also has a 64-bit side hash (RewriteSideHash),
// which the matcher folds from per-token hashes without spelling the text;
// the stats database's rewrite partner index is keyed by it. The index
// pairs side hashes in both directions, so a lookup needs no canonical
// order: only a key that is built decides its (lo, hi) order, by comparing
// the texts.
//
// Every P key (term position or rewrite position pair) also has a dense
// position index, 0..kNumPositionIndexes-1 (TermPositionIndex,
// RewritePositionIndex): there are only 24 term positions and 576 position
// pairs, so a scorer can resolve each index once per pair in a small
// table and spell a P key only the first time its index occurs.
//
// Hot paths spell keys with FeatureKeyBuffer, straight from a snippet's
// tokens into buffers that are reused from key to key.

#ifndef MICROBROWSE_MICROBROWSE_FEATURE_KEYS_H_
#define MICROBROWSE_MICROBROWSE_FEATURE_KEYS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "text/pair_tokens.h"
#include "text/snippet.h"

namespace microbrowse {

/// Positions are bucketed to control sparsity: buckets 0..kMaxPosBucket,
/// with everything past the last bucket collapsed into it.
inline constexpr int kMaxPosBucket = 7;
/// Lines past the third are collapsed into line bucket 2.
inline constexpr int kMaxLineBucket = 2;

/// Bucketed position of a span (uses the span's first token).
struct PositionKey {
  int line = 0;    ///< 0..kMaxLineBucket
  int bucket = 0;  ///< 0..kMaxPosBucket

  friend bool operator==(const PositionKey& a, const PositionKey& b) {
    return a.line == b.line && a.bucket == b.bucket;
  }
  friend bool operator<(const PositionKey& a, const PositionKey& b) {
    return a.line != b.line ? a.line < b.line : a.bucket < b.bucket;
  }
};

/// Buckets a raw (line, pos) location.
PositionKey MakePositionKey(int line, int pos);

/// Buckets a span's location.
inline PositionKey MakePositionKey(const TermSpan& span) {
  return MakePositionKey(span.line, span.pos);
}

/// Number of distinct bucketed positions: (line, bucket) pairs.
inline constexpr int kNumPositions = (kMaxLineBucket + 1) * (kMaxPosBucket + 1);
/// Number of position indexes: the term positions, then the position pairs.
inline constexpr int kNumPositionIndexes = kNumPositions * (1 + kNumPositions);

/// Position index of TermPositionKey(position): 0..kNumPositions-1.
inline int TermPositionIndex(const PositionKey& position) {
  return position.line * (kMaxPosBucket + 1) + position.bucket;
}

/// Position index of RewritePositionKey(r_pos, s_pos):
/// kNumPositions..kNumPositionIndexes-1.
inline int RewritePositionIndex(const PositionKey& r_pos, const PositionKey& s_pos) {
  return kNumPositions * (1 + TermPositionIndex(r_pos)) + TermPositionIndex(s_pos);
}

/// A canonicalised key plus the sign its raw direction maps to.
struct SignedKey {
  std::string key;
  double sign = 1.0;
};

/// "t:<text>".
std::string TermKey(std::string_view text);

/// "p:<line>:<bucket>".
std::string TermPositionKey(const PositionKey& position);

/// Positioned-term conjunction key "tp:<text>@<line>:<bucket>" — the
/// sparse term-x-position features of model M2 (the coupled factorisation
/// of Eq. 8/9 is introduced for the rewrite models; plain positioned term
/// features conjoin text and location in one key).
std::string TermConjunctionKey(std::string_view text, const PositionKey& position);

/// Canonical rewrite key for raw direction `from` -> `to`; sign is -1 when
/// the canonical order is the reverse of the raw order. A self-rewrite
/// (from == to, a pure move) keeps sign +1.
SignedKey RewriteKey(std::string_view from, std::string_view to);

/// Prefix of every rewrite key ("rw:<lo>=><hi>").
inline constexpr std::string_view kRewriteKeyPrefix = "rw:";

/// Hash of one side of a rewrite (a gram text), the key of the stats
/// database's rewrite partner index: the PhraseHash of its tokens
/// (text/pair_tokens.h), which the matcher folds from per-token pieces
/// without spelling the text. It is never persisted, so it carries no
/// stability contract across builds. Equal texts have equal side hashes;
/// distinct texts may collide, so a side hash can only rule a rewrite out,
/// never confirm it.
inline uint64_t RewriteSideHash(std::string_view text) { return PhraseHash(text); }

/// Calls `fn(lo_hash, hi_hash)`, the RewriteSideHash of both sides, once
/// for every way a stats key splits as "rw:<lo>=><hi>", i.e. once per "=>"
/// after the prefix. A key holding more than one "=>" ("rw:a=>b=>c") is
/// ambiguous, so every reading is emitted: whichever (lo, hi) produced the
/// key, its side hashes are among them. Calls nothing for keys that are
/// not rewrite keys.
template <typename Fn>
void ForEachRewriteSides(std::string_view key, Fn&& fn) {
  if (key.substr(0, kRewriteKeyPrefix.size()) != kRewriteKeyPrefix) return;
  const std::string_view body = key.substr(kRewriteKeyPrefix.size());
  for (size_t split = body.find("=>"); split != std::string_view::npos;
       split = body.find("=>", split + 1)) {
    fn(RewriteSideHash(body.substr(0, split)), RewriteSideHash(body.substr(split + 2)));
  }
}

/// The index range [first, second) of the rewrite keys in `table`, a
/// table of keys sorted in byte order with LowerBound(key). The rewrite
/// keys are one contiguous range, from the prefix up to its successor (the
/// prefix with its last byte incremented), found by binary search, so a
/// scan of it reads no other entry.
template <typename SortedTable>
std::pair<size_t, size_t> RewriteKeyRange(const SortedTable& table) {
  std::string successor(kRewriteKeyPrefix);
  ++successor.back();
  return {table.LowerBound(kRewriteKeyPrefix), table.LowerBound(successor)};
}

/// Ordered position-pair key "pp:<r>=><s>" for a rewrite whose R-side span
/// sits at `r_pos` and S-side span at `s_pos` — Eq. 8's f(v_p, w_q) with
/// p the position in R and q the position in S. The key is direction-
/// sensitive: presenting the same pair in the opposite order produces the
/// mirrored key, and the two learn consistent (approximately antisymmetric
/// in effect) weights from the randomly-ordered training pairs.
std::string RewritePositionKey(const PositionKey& r_pos, const PositionKey& s_pos);

/// Spells the keys above into buffers it owns and reuses, reading span
/// texts straight from a snippet's tokens: once the buffers have grown, a
/// key costs no allocation. Each returned view is valid until the next call
/// on the same buffer; a caller that needs two keys at once (a T key and a
/// P key) uses two buffers.
class FeatureKeyBuffer {
 public:
  /// TermKey of `span`'s text.
  std::string_view Term(const Snippet& snippet, const TermSpan& span);
  /// TermConjunctionKey of `span`'s text at MakePositionKey(span).
  std::string_view TermConjunction(const Snippet& snippet, const TermSpan& span);
  /// TermPositionKey(position).
  std::string_view TermPosition(const PositionKey& position);
  /// RewritePositionKey(r_pos, s_pos).
  std::string_view RewritePosition(const PositionKey& r_pos, const PositionKey& s_pos);
  /// The P key whose position index is `index` (TermPosition or
  /// RewritePosition); `index` must be below kNumPositionIndexes.
  std::string_view Position(int index);
  /// RewriteKey(from's text, to's text): the canonical key, with its sign
  /// in `*sign`. The order is decided by comparing the spelled texts.
  std::string_view Rewrite(const Snippet& from, const TermSpan& from_span, const Snippet& to,
                           const TermSpan& to_span, double* sign);

 private:
  std::string key_;
  std::string from_;  ///< Rewrite side texts, spelled before the key.
  std::string to_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_MICROBROWSE_FEATURE_KEYS_H_
