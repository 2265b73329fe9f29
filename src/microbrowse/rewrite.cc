// Copyright 2026 The Microbrowse Authors

#include "microbrowse/rewrite.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "common/hash.h"
#include "common/metrics.h"
#include "microbrowse/feature_keys.h"
#include "text/diff.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

/// Tokens of shared context annexed on each side of a diff region before
/// candidates are enumerated. Rewrites between phrases that share tokens
/// ("find cheap" -> "find deals on") leave only fragments in the raw token
/// diff; the expanded window lets the matcher recover the full phrase pair.
constexpr int kContextExpansion = 2;

/// A contiguous differing token window on one side of the pair.
struct DiffRegion {
  int line = 0;
  int begin = 0;
  int count = 0;
};

/// A candidate phrase pairing: indices into the R and S gram vectors.
/// Candidates are enumerated in (r, s) order, so comparing the pair
/// compares enumeration order, the tie-break of every score tie.
struct GramPair {
  uint32_t r = 0;
  uint32_t s = 0;

  friend bool operator<(GramPair a, GramPair b) { return a.r != b.r ? a.r < b.r : a.s < b.s; }
};

/// A candidate whose score carries an exact-text bonus or a database score,
/// kept with that score. Every other candidate is ordered by its integer
/// rank (see GeometricRanks) and stores no score.
struct ScoredCandidate {
  double score = 0.0;
  GramPair grams;
};

/// The greedy cover's order: score descending, then enumeration order.
bool PopsBefore(double a_score, GramPair a, double b_score, GramPair b) {
  if (a_score != b_score) return a_score > b_score;
  return a < b;
}

/// Exact integer ranks for candidates scored by geometry alone. Such a
/// candidate scores 10 * coverage + Locality = 10·(lr + ls) − 3|Δline| −
/// 0.25|Δpos|, and with the largest coverage C of the gram sets that is
/// exactly 10·C − rank / 4 for
///   rank = 40·(C − lr − ls) + 12|Δline| + |Δpos|.
/// Every term is an integer or a quarter well inside a double's mantissa,
/// so the double score and the rank agree exactly: higher score is lower
/// rank, and equal scores are equal ranks. Ranks span [0, size()), which
/// the gram sets' line and position ranges bound, so a bucket array of
/// that size stays linear in the longest line.
class GeometricRanks {
 public:
  GeometricRanks(const std::vector<TermSpan>& r_grams, const std::vector<TermSpan>& s_grams) {
    if (r_grams.empty() || s_grams.empty()) return;  // No candidates, no ranks.
    int r_len = 0;
    int s_len = 0;
    int min_line = std::numeric_limits<int>::max();
    int max_line = 0;
    int min_pos = std::numeric_limits<int>::max();
    int max_pos = 0;
    const auto widen = [&](const TermSpan& span) {
      min_line = std::min(min_line, span.line);
      max_line = std::max(max_line, span.line);
      min_pos = std::min(min_pos, span.pos);
      max_pos = std::max(max_pos, span.pos);
    };
    for (const TermSpan& span : r_grams) {
      r_len = std::max(r_len, span.len);
      widen(span);
    }
    for (const TermSpan& span : s_grams) {
      s_len = std::max(s_len, span.len);
      widen(span);
    }
    max_coverage_ = r_len + s_len;
    // The widest rank: both spans one token long, lines and positions at
    // opposite ends of their ranges.
    size_ = 40 * static_cast<size_t>(max_coverage_ - 2) +
            12 * static_cast<size_t>(max_line - min_line) +
            static_cast<size_t>(max_pos - min_pos) + 1;
  }

  size_t size() const { return size_; }

  uint32_t Rank(const TermSpan& r_span, const TermSpan& s_span) const {
    return static_cast<uint32_t>(40 * (max_coverage_ - r_span.len - s_span.len) +
                                 12 * std::abs(r_span.line - s_span.line) +
                                 std::abs(r_span.pos - s_span.pos));
  }

  /// The score of every candidate of rank `rank`, bit for bit.
  double Score(uint32_t rank) const { return 10.0 * max_coverage_ - 0.25 * rank; }

 private:
  int max_coverage_ = 0;
  size_t size_ = 0;
};

/// Expands each region by kContextExpansion tokens of context on both
/// sides (clamped to the line) and merges regions that then touch or
/// overlap. Regions must arrive sorted by (line, begin), which
/// CollectDiffRegions guarantees.
void ExpandAndMergeRegions(const Snippet& snippet, std::vector<DiffRegion>* regions) {
  for (DiffRegion& region : *regions) {
    const int line_size = static_cast<int>(snippet.line(region.line).size());
    const int begin = std::max(0, region.begin - kContextExpansion);
    const int end = std::min(line_size, region.begin + region.count + kContextExpansion);
    region.begin = begin;
    region.count = end - begin;
  }
  size_t out = 0;
  for (size_t i = 0; i < regions->size(); ++i) {
    DiffRegion& current = (*regions)[i];
    if (out > 0) {
      DiffRegion& prev = (*regions)[out - 1];
      if (prev.line == current.line && current.begin <= prev.begin + prev.count) {
        const int end = std::max(prev.begin + prev.count, current.begin + current.count);
        prev.count = end - prev.begin;
        continue;
      }
    }
    (*regions)[out++] = current;
  }
  regions->resize(out);
}

/// Aligned token pairs of every line, from the same diffs that produced
/// the regions: line `l`'s matches are [line_begin[l], line_begin[l + 1]).
struct LineMatches {
  std::vector<TokenMatch> matches;
  std::vector<size_t> line_begin;
};

/// Collects per-line diff regions for both snippets, diffing token ids,
/// and keeps each line's LCS alignment for the shift-rewrite pass. The
/// output vectors are cleared first; `table` and `hunks` are the line
/// diffs' working buffers.
void CollectDiffRegions(const Snippet& r, const Snippet& s, const PairTokens& tokens,
                        std::vector<DiffRegion>* r_regions, std::vector<DiffRegion>* s_regions,
                        LineMatches* aligned, std::vector<int>* table,
                        std::vector<DiffHunk>* hunks) {
  // Every buffer is sized once up front: a line's LCS table is
  // (n + 1) x (m + 1), it aligns at most min(n, m) tokens and yields at
  // most min(n, m) + 1 hunks, each at most one region per side.
  const int lines = std::max(r.num_lines(), s.num_lines());
  size_t table_size = 0;
  size_t max_hunks = 0;
  size_t total_matches = 0;
  for (int line = 0; line < lines; ++line) {
    const size_t n = tokens.Line(PairSide::kR, line).size();
    const size_t m = tokens.Line(PairSide::kS, line).size();
    table_size = std::max(table_size, (n + 1) * (m + 1));
    max_hunks = std::max(max_hunks, std::min(n, m) + 1);
    total_matches += std::min(n, m);
  }
  r_regions->clear();
  s_regions->clear();
  aligned->matches.clear();
  aligned->line_begin.clear();
  table->reserve(table_size);
  hunks->reserve(max_hunks);
  aligned->matches.reserve(total_matches);
  aligned->line_begin.reserve(static_cast<size_t>(lines) + 1);
  r_regions->reserve(total_matches + static_cast<size_t>(lines));
  s_regions->reserve(total_matches + static_cast<size_t>(lines));
  for (int line = 0; line < lines; ++line) {
    aligned->line_begin.push_back(aligned->matches.size());
    hunks->clear();
    AppendTokenDiff(tokens.Line(PairSide::kR, line), tokens.Line(PairSide::kS, line), table,
                    hunks, &aligned->matches);
    for (const DiffHunk& hunk : *hunks) {
      if (hunk.a_len > 0) r_regions->push_back(DiffRegion{line, hunk.a_pos, hunk.a_len});
      if (hunk.b_len > 0) s_regions->push_back(DiffRegion{line, hunk.b_pos, hunk.b_len});
    }
  }
  aligned->line_begin.push_back(aligned->matches.size());
}

/// Locality bonus: same line and nearby positions score higher.
double Locality(const TermSpan& a, const TermSpan& b) {
  return -3.0 * std::abs(a.line - b.line) - 0.25 * std::abs(a.pos - b.pos);
}

/// Which token positions of the pair a matched rewrite has consumed,
/// indexed by PairTokens' flat positions, in a mask the caller owns.
class Coverage {
 public:
  /// Clears `mask` to one uncovered entry per token position.
  Coverage(const PairTokens& tokens, std::vector<char>* mask) : tokens_(&tokens), covered_(mask) {
    mask->assign(tokens.num_positions(), 0);
  }

  bool Covered(PairSide side, int line, int pos) const {
    return (*covered_)[tokens_->Offset(side, line) + pos] != 0;
  }

  /// Whether none of `span`'s tokens is covered yet.
  bool Free(PairSide side, const TermSpan& span) const {
    const char* mask = covered_->data() + tokens_->Offset(side, span.line) + span.pos;
    for (int i = 0; i < span.len; ++i) {
      if (mask[i]) return false;
    }
    return true;
  }

  void Cover(PairSide side, const TermSpan& span) {
    char* mask = covered_->data() + tokens_->Offset(side, span.line) + span.pos;
    for (int i = 0; i < span.len; ++i) mask[i] = 1;
  }

 private:
  const PairTokens* tokens_;
  std::vector<char>* covered_;
};

/// Emits all n-grams of the expanded diff regions. With the context
/// expansion these are exactly the n-grams present in one snippet but not
/// the other (plus shared-context grams, which appear on both sides and
/// cancel downstream) — the paper's "terms in R but not in S" after
/// matching. They are also the matcher's candidate phrases.
std::vector<TermSpan> RegionGrams(const Snippet& snippet,
                                  const std::vector<DiffRegion>& regions) {
  size_t total = 0;
  for (const DiffRegion& region : regions) total += NumNGramsInWindow(region.count, kMaxNgram);
  std::vector<TermSpan> out;
  out.reserve(total);
  for (const DiffRegion& region : regions) {
    AppendNGramsInWindow(snippet, region.line, region.begin, region.count, kMaxNgram, &out);
  }
  return out;
}

/// What the candidate search reads of a gram: its token ids, for the
/// same-text test, and its side hash (RewriteSideHash of its text), the
/// key of the same-text and rewrite-partner lookups.
struct GramTokens {
  const TokenId* ids = nullptr;
  uint64_t hash = 0;
};

/// Frees `buffer` when its capacity exceeds `keep_bytes`.
template <typename T>
void ReleaseIfOver(size_t keep_bytes, std::vector<T>* buffer) {
  if (buffer->capacity() * sizeof(T) > keep_bytes) std::vector<T>().swap(*buffer);
}

/// One side's grams grouped by side hash: an open-addressing table of
/// chain heads over the hashes, each chain linking the grams of one hash
/// in index order. Equal texts share a chain; a hash collision only puts
/// other grams on it, which the caller's exact tests reject.
class GramsByHash {
 public:
  void Build(const GramTokens* grams, uint32_t count) {
    grams_ = grams;
    heads_.assign(std::bit_ceil(std::max<size_t>(2, 2 * size_t{count})), 0);
    next_.resize(count);
    for (uint32_t i = count; i-- > 0;) {  // Back to front, so chains run front to back.
      uint32_t& head = heads_[Slot(grams[i].hash)];
      next_[i] = head;
      head = i + 1;
    }
  }

  /// Frees the table when it holds more than `keep_bytes`.
  void Trim(size_t keep_bytes) {
    ReleaseIfOver(keep_bytes, &heads_);
    ReleaseIfOver(keep_bytes, &next_);
  }

  /// Calls `fn(i)` for every gram i whose hash is `hash`, in index order.
  template <typename Fn>
  void ForEach(uint64_t hash, Fn&& fn) const {
    for (uint32_t gram = heads_[Slot(hash)]; gram != 0; gram = next_[gram - 1]) fn(gram - 1);
  }

 private:
  /// The slot of `hash`'s chain, or the empty slot where it would go.
  size_t Slot(uint64_t hash) const {
    const size_t mask = heads_.size() - 1;
    size_t slot = Mix64(hash) & mask;
    while (heads_[slot] != 0 && grams_[heads_[slot] - 1].hash != hash) slot = (slot + 1) & mask;
    return slot;
  }

  const GramTokens* grams_ = nullptr;
  std::vector<uint32_t> heads_;  ///< First gram + 1 of a hash's chain; 0 = empty.
  std::vector<uint32_t> next_;   ///< Next gram + 1 on the chain; 0 = end.
};

/// The working buffers of one MatchRewrites call, kept per thread and
/// reused from call to call, so that once they have grown a call allocates
/// only its output.
struct MatchScratch {
  std::vector<DiffRegion> r_regions;
  std::vector<DiffRegion> s_regions;
  LineMatches aligned;
  std::vector<int> table;
  std::vector<DiffHunk> hunks;
  std::vector<GramTokens> gram_tokens;
  GramsByHash s_by_hash;
  std::vector<uint32_t> reached_by;  ///< Per S gram: 1 + the last R gram that reached it.
  std::vector<ScoredCandidate> scored;
  std::vector<GramPair> scored_left;
  std::vector<uint32_t> free_s;
  std::vector<GramPair> geometric;
  std::vector<uint32_t> bucket_begin;
  std::vector<uint32_t> by_rank;
  std::vector<char> covered;
  std::vector<RewriteMatch> rewrites;
  FeatureKeyBuffer key;

  /// Releases the buffers an outsized pair grew past kKeepBytes, so one
  /// such request does not pin its memory for the thread's lifetime.
  void Trim() {
    const auto release = [](auto&... buffers) { (ReleaseIfOver(kKeepBytes, &buffers), ...); };
    release(r_regions, s_regions, aligned.matches, aligned.line_begin, table, hunks, gram_tokens,
            reached_by, scored, scored_left, free_s, geometric, bucket_begin, by_rank, covered,
            rewrites);
    s_by_hash.Trim(kKeepBytes);
  }

  static constexpr size_t kKeepBytes = size_t{1} << 18;
};

/// Emits *shift rewrites*: identical tokens that the LCS kept aligned but
/// whose positions landed in different buckets (an upstream edit changed
/// their offsets). The paper's rewrite tuples carry positions explicitly —
/// ("find cheap":1:2 -> "get discounts":5:2) — so a term whose position
/// changed while its text did not is a rewrite too, and it is exactly the
/// "location within a snippet" signal the micro-browsing model is about.
/// Tokens already consumed by a matched candidate are skipped.
void AppendShiftRewrites(const LineMatches& aligned, const Coverage& covered,
                         std::vector<RewriteMatch>* rewrites) {
  const int lines = static_cast<int>(aligned.line_begin.size()) - 1;
  for (int line = 0; line < lines; ++line) {
    const TokenMatch* matches = aligned.matches.data() + aligned.line_begin[line];
    const size_t count = aligned.line_begin[line + 1] - aligned.line_begin[line];

    // Maximal runs of consecutive aligned pairs whose bucketed positions
    // differ and whose tokens are not already covered.
    size_t i = 0;
    while (i < count) {
      auto shifted = [&](const TokenMatch& match) {
        return !(MakePositionKey(line, match.a_index) == MakePositionKey(line, match.b_index)) &&
               !covered.Covered(PairSide::kR, line, match.a_index) &&
               !covered.Covered(PairSide::kS, line, match.b_index);
      };
      if (!shifted(matches[i])) {
        ++i;
        continue;
      }
      size_t end = i + 1;
      while (end < count && shifted(matches[end]) &&
             matches[end].a_index == matches[end - 1].a_index + 1 &&
             matches[end].b_index == matches[end - 1].b_index + 1) {
        ++end;
      }
      // Emit all sub-grams of the run as same-text rewrites.
      const int run_len = static_cast<int>(end - i);
      for (int offset = 0; offset < run_len; ++offset) {
        const int max_len = std::min(kMaxNgram, run_len - offset);
        for (int len = 1; len <= max_len; ++len) {
          rewrites->push_back(RewriteMatch{TermSpan{line, matches[i + offset].a_index, len},
                                           TermSpan{line, matches[i + offset].b_index, len}});
        }
      }
      i = end;
    }
  }
}

}  // namespace

PairDiff MatchRewrites(const Snippet& r, const Snippet& s, const FeatureStatsDb* db) {
  // One dictionary per thread, rebuilt in place; an outsized pair's
  // buffers are not kept.
  thread_local PairTokens tokens;
  tokens.Reset(r, s);
  PairDiff out = MatchRewrites(r, s, tokens, db);
  if (tokens.num_positions() > MatchScratch::kKeepBytes / sizeof(TokenId)) tokens = PairTokens();
  return out;
}

PairDiff MatchRewrites(const Snippet& r, const Snippet& s, const PairTokens& tokens,
                       const FeatureStatsDb* db) {
  thread_local MatchScratch scratch;
  PairDiff out;
  std::vector<DiffRegion>& r_regions = scratch.r_regions;
  std::vector<DiffRegion>& s_regions = scratch.s_regions;
  CollectDiffRegions(r, s, tokens, &r_regions, &s_regions, &scratch.aligned, &scratch.table,
                     &scratch.hunks);
  if (r_regions.empty() && s_regions.empty()) {
    scratch.Trim();
    return out;
  }
  ExpandAndMergeRegions(r, &r_regions);
  ExpandAndMergeRegions(s, &s_regions);

  // Candidate phrases on each side; they double as the unmatched residue.
  std::vector<TermSpan> r_grams = RegionGrams(r, r_regions);
  std::vector<TermSpan> s_grams = RegionGrams(s, s_regions);
  const auto r_count = static_cast<uint32_t>(r_grams.size());
  const auto s_count = static_cast<uint32_t>(s_grams.size());

  const RewritePartnerIndex* index = db != nullptr ? db->rewrite_index() : nullptr;
  // Every gram's token ids, R's first, and its side hash, folded from the
  // per-token pieces.
  std::vector<GramTokens>& gram_tokens = scratch.gram_tokens;
  gram_tokens.clear();
  gram_tokens.reserve(r_grams.size() + s_grams.size());
  for (PairSide side : {PairSide::kR, PairSide::kS}) {
    for (const TermSpan& span : side == PairSide::kR ? r_grams : s_grams) {
      gram_tokens.push_back(GramTokens{tokens.SpanIds(side, span), tokens.SpanHash(side, span)});
    }
  }
  const GramTokens* r_tokens = gram_tokens.data();
  const GramTokens* s_tokens = gram_tokens.data() + r_count;

  // Scored candidates: those with an exact-text bonus or a database score,
  // found by lookup rather than by enumerating R x S. For each R gram, the
  // S grams of equal hash are its same-text candidates, and with a
  // database the S grams whose hash is one of the gram's rewrite partners
  // (every S gram when the database has no index) are the candidates Find
  // may score. Partners come first, so a candidate that is both gets its
  // Find; `reached_by` makes every candidate count once per R gram. Every
  // other candidate is geometric, ordered by its integer rank (see
  // GeometricRanks).
  std::vector<ScoredCandidate>& scored = scratch.scored;
  scored.clear();
  FeatureKeyBuffer& key = scratch.key;
  int64_t identities = 0;
  int64_t reached = 0;
  int64_t hits = 0;
  GramsByHash& s_by_hash = scratch.s_by_hash;
  s_by_hash.Build(s_tokens, s_count);
  std::vector<uint32_t>& reached_by = scratch.reached_by;
  reached_by.assign(s_count, 0);
  for (uint32_t ri = 0; ri < r_count; ++ri) {
    const TermSpan& r_span = r_grams[ri];
    const auto reach = [&](uint32_t si, bool may_be_in_db) {
      if (reached_by[si] == ri + 1) return;
      reached_by[si] = ri + 1;
      const TermSpan& s_span = s_grams[si];
      // Equal id tuples are equal texts (text/pair_tokens.h).
      const bool same_text =
          r_span.len == s_span.len &&
          std::equal(r_tokens[ri].ids, r_tokens[ri].ids + r_span.len, s_tokens[si].ids);
      // Identity candidates (same text at the same location) are no-op
      // artifacts of the context expansion; admitting them would let
      // shared context absorb the exact-match bonus and block real
      // phrase pairings.
      if (same_text && r_span == s_span) {
        ++identities;
        return;
      }
      // Stays 0 unless the database holds the rewrite.
      double db_score = 0.0;
      if (may_be_in_db) {
        // Spells canonical RewriteKey(s text, r text), ordering the
        // sides by comparing their texts.
        ++reached;
        double sign = 0.0;
        const FeatureStat* stat = db->Find(key.Rewrite(s, s_span, r, r_span, &sign));
        if (stat != nullptr) {
          ++hits;
          // Frequency dominates ("a more probable rewrite has a higher
          // score"); decisiveness (|log odds|) refines.
          db_score = 1e4 * std::log1p(static_cast<double>(stat->total)) +
                     1e2 * std::fabs(stat->LogOdds(db->smoothing()));
        }
      }
      if (same_text || db_score != 0.0) {
        const double coverage = static_cast<double>(r_span.len + s_span.len);
        // Exact-text pairings are pure moves — always the best explanation.
        const double exact = same_text ? 1e9 : 0.0;
        scored.push_back(ScoredCandidate{
            exact + db_score + coverage * 10.0 + Locality(r_span, s_span), GramPair{ri, si}});
      }
    };
    const uint64_t r_hash = r_tokens[ri].hash;
    if (index != nullptr) {
      index->ForEachPartner(r_hash, [&](uint64_t partner) {
        s_by_hash.ForEach(partner, [&](uint32_t si) { reach(si, true); });
      });
    } else if (db != nullptr) {
      for (uint32_t si = 0; si < s_count; ++si) reach(si, true);
    }
    s_by_hash.ForEach(r_hash, [&](uint32_t si) { reach(si, false); });
  }
  std::sort(scored.begin(), scored.end(), [](const ScoredCandidate& a, const ScoredCandidate& b) {
    return PopsBefore(a.score, a.grams, b.score, b.grams);
  });

  // Greedy cover in (score desc, order asc) order. Every candidate lies
  // inside the merged regions, so once either side's region tokens are all
  // covered no later candidate can fit and the cover stops.
  int r_uncovered = 0;
  for (const DiffRegion& region : r_regions) r_uncovered += region.count;
  int s_uncovered = 0;
  for (const DiffRegion& region : s_regions) s_uncovered += region.count;
  int64_t popped = 0;
  Coverage covered(tokens, &scratch.covered);
  std::vector<RewriteMatch>& rewrites = scratch.rewrites;
  rewrites.clear();
  const auto pop = [&](GramPair grams) {
    ++popped;
    const TermSpan& r_span = r_grams[grams.r];
    const TermSpan& s_span = s_grams[grams.s];
    // Probe coverage without committing: check both sides first.
    if (!covered.Free(PairSide::kR, r_span) || !covered.Free(PairSide::kS, s_span)) return;
    covered.Cover(PairSide::kR, r_span);
    covered.Cover(PairSide::kS, s_span);
    r_uncovered -= r_span.len;
    s_uncovered -= s_span.len;
    rewrites.push_back(RewriteMatch{r_span, s_span});
  };

  // Phase 1: a scored candidate above the best geometric score, 10·C at
  // rank 0, precedes every geometric candidate, so those are popped before
  // any geometric candidate exists.
  const GeometricRanks ranks(r_grams, s_grams);
  size_t next_scored = 0;
  while (next_scored < scored.size() && scored[next_scored].score > ranks.Score(0) &&
         r_uncovered > 0 && s_uncovered > 0) {
    pop(scored[next_scored++].grams);
  }

  // Phase 2: the geometric candidates the cover can still accept, merged
  // with the remaining scored ones under the same order. Coverage only
  // grows, so a candidate with a covered span would be popped and skipped:
  // only free R grams x free S grams are enumerated, in (r, s) order,
  // leaving out identities and the scored candidates still to pop.
  size_t geometric_count = 0;
  if (r_uncovered > 0 && s_uncovered > 0) {
    std::vector<uint32_t>& free_s = scratch.free_s;
    free_s.clear();
    for (uint32_t si = 0; si < s_count; ++si) {
      if (covered.Free(PairSide::kS, s_grams[si])) free_s.push_back(si);
    }
    std::vector<GramPair>& scored_left = scratch.scored_left;
    scored_left.clear();
    for (size_t i = next_scored; i < scored.size(); ++i) scored_left.push_back(scored[i].grams);
    std::sort(scored_left.begin(), scored_left.end());
    // Each geometric candidate is counted in its rank's bucket.
    std::vector<GramPair>& geometric = scratch.geometric;
    geometric.clear();
    std::vector<uint32_t>& bucket_begin = scratch.bucket_begin;
    bucket_begin.assign(ranks.size() + 1, 0);
    size_t next_left = 0;
    for (uint32_t ri = 0; ri < r_count; ++ri) {
      const TermSpan& r_span = r_grams[ri];
      if (!covered.Free(PairSide::kR, r_span)) continue;
      for (uint32_t si : free_s) {
        const TermSpan& s_span = s_grams[si];
        const GramPair grams{ri, si};
        while (next_left < scored_left.size() && scored_left[next_left] < grams) ++next_left;
        if (next_left < scored_left.size() && !(grams < scored_left[next_left])) continue;
        if (r_span == s_span &&
            std::equal(r_tokens[ri].ids, r_tokens[ri].ids + r_span.len, s_tokens[si].ids)) {
          continue;  // An identity candidate.
        }
        // 0.0 + 0.0 + coverage * 10.0 + locality is the rank's score exactly.
        ++bucket_begin[ranks.Rank(r_span, s_span) + 1];
        geometric.push_back(grams);
      }
    }
    geometric_count = geometric.size();
    // Stable counting sort of the geometric candidates: bucket r's slots
    // start after every lower rank's, and filling them in enumeration
    // order lists each rank's candidates in that order, exactly as a full
    // sort by (score desc, order asc) would.
    std::partial_sum(bucket_begin.begin(), bucket_begin.end(), bucket_begin.begin());
    std::vector<uint32_t>& by_rank = scratch.by_rank;
    by_rank.resize(geometric.size());
    for (uint32_t i = 0; i < geometric.size(); ++i) {
      const GramPair grams = geometric[i];
      const uint32_t rank = ranks.Rank(r_grams[grams.r], s_grams[grams.s]);
      by_rank[bucket_begin[rank]++] = i;
    }
    size_t next_geometric = 0;
    while ((next_geometric < by_rank.size() || next_scored < scored.size()) && r_uncovered > 0 &&
           s_uncovered > 0) {
      if (next_geometric == by_rank.size()) {
        pop(scored[next_scored++].grams);
        continue;
      }
      const GramPair grams = geometric[by_rank[next_geometric]];
      if (next_scored < scored.size() &&
          PopsBefore(scored[next_scored].score, scored[next_scored].grams,
                     ranks.Score(ranks.Rank(r_grams[grams.r], s_grams[grams.s])), grams)) {
        pop(scored[next_scored++].grams);
      } else {
        ++next_geometric;
        pop(grams);
      }
    }
  }

  // Tallied in locals and added once per call.
  static Counter* const candidates_counter =
      MetricRegistry::Global().GetCounter("mb.rewrite.candidates");
  static Counter* const popped_counter = MetricRegistry::Global().GetCounter("mb.rewrite.popped");
  static Counter* const accepted_counter =
      MetricRegistry::Global().GetCounter("mb.rewrite.accepted");
  candidates_counter->Increment(static_cast<int64_t>(scored.size() + geometric_count));
  popped_counter->Increment(popped);
  accepted_counter->Increment(static_cast<int64_t>(rewrites.size()));
  if (db != nullptr) {
    static Counter* const lookups_counter =
        MetricRegistry::Global().GetCounter("mb.rewrite.lookups");
    static Counter* const reached_counter =
        MetricRegistry::Global().GetCounter("mb.rewrite.filter_passed");
    static Counter* const hits_counter = MetricRegistry::Global().GetCounter("mb.rewrite.hits");
    // Every non-identity R x S pair is a lookup the index answers.
    lookups_counter->Increment(static_cast<int64_t>(r_grams.size() * s_grams.size()) -
                               identities);
    reached_counter->Increment(reached);
    hits_counter->Increment(hits);
  }

  AppendShiftRewrites(scratch.aligned, covered, &rewrites);
  out.rewrites.assign(rewrites.begin(), rewrites.end());
  out.r_only = std::move(r_grams);
  out.s_only = std::move(s_grams);
  scratch.Trim();
  return out;
}

}  // namespace microbrowse
