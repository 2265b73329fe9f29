// Copyright 2026 The Microbrowse Authors
//
// The string-based rewrite matcher as it stood before the index-based
// rewrite, kept as a test-only reference. Every candidate carries
// copies of both span texts and a formatted rewrite key, and the list is
// ordered with std::stable_sort. The production matcher must reproduce its
// PairDiff exactly, rewrite order included; see
// rewrite_differential_test.cc.

#include "rewrite_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "microbrowse/feature_keys.h"
#include "text/diff.h"
#include "text/ngram.h"

namespace microbrowse {

namespace {

/// Tokens of shared context annexed on each side of a diff region.
constexpr int kContextExpansion = 2;

/// A contiguous differing token window on one side of the pair.
struct DiffRegion {
  int line = 0;
  int begin = 0;
  int count = 0;
};

/// A candidate phrase pairing with its greedy priority.
struct Candidate {
  TermSpan r_span;
  TermSpan s_span;
  double score = 0.0;
  int order = 0;  ///< Enumeration order, the tie-break.
};

/// Expands each region by `expansion` tokens of context on both sides
/// (clamped to the line) and merges regions that then touch or overlap.
/// Regions must arrive sorted by (line, begin), which CollectDiffRegions
/// guarantees.
void ExpandAndMergeRegions(const Snippet& snippet, int expansion,
                           std::vector<DiffRegion>* regions) {
  if (expansion <= 0) return;
  for (DiffRegion& region : *regions) {
    const int line_size = static_cast<int>(snippet.line(region.line).size());
    const int begin = std::max(0, region.begin - expansion);
    const int end = std::min(line_size, region.begin + region.count + expansion);
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

/// Collects per-line diff regions for both snippets.
void CollectDiffRegions(const Snippet& r, const Snippet& s, std::vector<DiffRegion>* r_regions,
                        std::vector<DiffRegion>* s_regions) {
  static const std::vector<std::string> kEmptyLine;
  const int lines = std::max(r.num_lines(), s.num_lines());
  for (int line = 0; line < lines; ++line) {
    const auto& r_tokens = line < r.num_lines() ? r.line(line) : kEmptyLine;
    const auto& s_tokens = line < s.num_lines() ? s.line(line) : kEmptyLine;
    for (const DiffHunk& hunk : TokenDiff(r_tokens, s_tokens)) {
      if (hunk.a_len > 0) r_regions->push_back(DiffRegion{line, hunk.a_pos, hunk.a_len});
      if (hunk.b_len > 0) s_regions->push_back(DiffRegion{line, hunk.b_pos, hunk.b_len});
    }
  }
}

/// Locality bonus: same line and nearby positions score higher.
double Locality(const TermSpan& a, const TermSpan& b) {
  return -3.0 * std::abs(a.line - b.line) - 0.25 * std::abs(a.pos - b.pos);
}

double CandidateScore(const TermSpan& r_span, const std::string& r_text, const TermSpan& s_span,
                      const std::string& s_text, const FeatureStatsDb* db) {
  const double coverage = static_cast<double>(r_span.len + s_span.len);
  const double locality = Locality(r_span, s_span);
  // Exact-text pairings are pure moves — always the best explanation.
  const double exact = r_text == s_text ? 1e9 : 0.0;
  double db_score = 0.0;
  if (db != nullptr) {
    const SignedKey key = RewriteKey(s_text, r_text);
    const FeatureStat* stat = db->Find(key.key);
    if (stat != nullptr) {
      // Frequency dominates ("a more probable rewrite has a higher
      // score"); decisiveness (|log odds|) refines.
      db_score = 1e4 * std::log1p(static_cast<double>(stat->total)) +
                 1e2 * std::fabs(stat->LogOdds(db->smoothing()));
    }
  }
  return exact + db_score + coverage * 10.0 + locality;
}

/// Marks `span`'s tokens in `covered` (per-line bitmask); returns false if
/// any token is already covered.
bool TryCover(const TermSpan& span, std::vector<std::vector<char>>* covered) {
  auto& line_mask = (*covered)[span.line];
  for (int i = 0; i < span.len; ++i) {
    if (line_mask[span.pos + i]) return false;
  }
  for (int i = 0; i < span.len; ++i) line_mask[span.pos + i] = 1;
  return true;
}

/// Emits all n-grams of the expanded diff regions. With the context
/// expansion these are exactly the n-grams present in one snippet but not
/// the other (plus shared-context grams, which appear on both sides and
/// cancel downstream) — the paper's "terms in R but not in S" after
/// matching.
std::vector<TermSpan> RegionTerms(const Snippet& snippet, const std::vector<DiffRegion>& regions,
                                  int max_ngram) {
  std::vector<TermSpan> out;
  for (const DiffRegion& region : regions) {
    auto grams =
        ExtractNGramsInWindow(snippet, region.line, region.begin, region.count, max_ngram);
    out.insert(out.end(), grams.begin(), grams.end());
  }
  return out;
}

/// Emits *shift rewrites*: identical tokens that the LCS kept aligned but
/// whose positions landed in different buckets (an upstream edit changed
/// their offsets). The paper's rewrite tuples carry positions explicitly —
/// ("find cheap":1:2 -> "get discounts":5:2) — so a term whose position
/// changed while its text did not is a rewrite too, and it is exactly the
/// "location within a snippet" signal the micro-browsing model is about.
/// Tokens already consumed by a matched candidate are skipped.
void AppendShiftRewrites(const Snippet& r, const Snippet& s,
                         const std::vector<std::vector<char>>& r_covered,
                         const std::vector<std::vector<char>>& s_covered, int max_ngram,
                         std::vector<RewriteMatch>* rewrites) {
  static const std::vector<std::string> kEmptyLine;
  const int lines = std::max(r.num_lines(), s.num_lines());
  for (int line = 0; line < lines; ++line) {
    const auto& r_tokens = line < r.num_lines() ? r.line(line) : kEmptyLine;
    const auto& s_tokens = line < s.num_lines() ? s.line(line) : kEmptyLine;
    if (r_tokens.empty() || s_tokens.empty()) continue;
    std::vector<TokenMatch> matches;
    TokenDiff(r_tokens, s_tokens, &matches);

    // Maximal runs of consecutive aligned pairs whose bucketed positions
    // differ and whose tokens are not already covered.
    size_t i = 0;
    while (i < matches.size()) {
      auto shifted = [&](const TokenMatch& match) {
        return !(MakePositionKey(line, match.a_index) == MakePositionKey(line, match.b_index)) &&
               !r_covered[line][match.a_index] && !s_covered[line][match.b_index];
      };
      if (!shifted(matches[i])) {
        ++i;
        continue;
      }
      size_t end = i + 1;
      while (end < matches.size() && shifted(matches[end]) &&
             matches[end].a_index == matches[end - 1].a_index + 1 &&
             matches[end].b_index == matches[end - 1].b_index + 1) {
        ++end;
      }
      // Emit all sub-grams of the run as same-text rewrites.
      const int run_len = static_cast<int>(end - i);
      for (int offset = 0; offset < run_len; ++offset) {
        const int max_len = std::min(max_ngram, run_len - offset);
        for (int len = 1; len <= max_len; ++len) {
          const int a_pos = matches[i + offset].a_index;
          const int b_pos = matches[i + offset].b_index;
          RewriteMatch match;
          match.r_span = TermSpan{line, a_pos, len};
          match.s_span = TermSpan{line, b_pos, len};
          rewrites->push_back(std::move(match));
        }
      }
      i = end;
    }
  }
}

std::vector<std::vector<char>> MakeCoverage(const Snippet& snippet) {
  std::vector<std::vector<char>> covered(snippet.num_lines());
  for (int line = 0; line < snippet.num_lines(); ++line) {
    covered[line].assign(snippet.line(line).size(), 0);
  }
  return covered;
}

}  // namespace

PairDiff ReferenceMatchRewrites(const Snippet& r, const Snippet& s, const FeatureStatsDb* db) {
  PairDiff out;
  std::vector<DiffRegion> r_regions;
  std::vector<DiffRegion> s_regions;
  CollectDiffRegions(r, s, &r_regions, &s_regions);
  if (r_regions.empty() && s_regions.empty()) return out;
  ExpandAndMergeRegions(r, kContextExpansion, &r_regions);
  ExpandAndMergeRegions(s, kContextExpansion, &s_regions);

  // Enumerate candidate phrase pairs across all region combinations.
  std::vector<TermSpan> r_grams;
  for (const DiffRegion& region : r_regions) {
    auto grams = ExtractNGramsInWindow(r, region.line, region.begin, region.count, kMaxNgram);
    r_grams.insert(r_grams.end(), grams.begin(), grams.end());
  }
  std::vector<TermSpan> s_grams;
  for (const DiffRegion& region : s_regions) {
    auto grams = ExtractNGramsInWindow(s, region.line, region.begin, region.count, kMaxNgram);
    s_grams.insert(s_grams.end(), grams.begin(), grams.end());
  }

  std::vector<Candidate> candidates;
  candidates.reserve(r_grams.size() * s_grams.size());
  int order = 0;
  for (const TermSpan& r_span : r_grams) {
    const std::string r_text = r.SpanText(r_span);
    for (const TermSpan& s_span : s_grams) {
      const std::string s_text = s.SpanText(s_span);
      // Identity candidates (same text at the same location) are no-op
      // artifacts of the context expansion; admitting them would let
      // shared context absorb the exact-match bonus and block real phrase
      // pairings.
      if (r_span == s_span && r_text == s_text) continue;
      candidates.push_back(Candidate{
          r_span, s_span, CandidateScore(r_span, r_text, s_span, s_text, db), order++});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.order < b.order;
                   });

  // Greedy disjoint cover.
  auto r_covered = MakeCoverage(r);
  auto s_covered = MakeCoverage(s);
  for (const Candidate& candidate : candidates) {
    // Probe coverage without committing: check both sides first.
    bool r_free = true;
    for (int i = 0; i < candidate.r_span.len; ++i) {
      if (r_covered[candidate.r_span.line][candidate.r_span.pos + i]) r_free = false;
    }
    if (!r_free) continue;
    bool s_free = true;
    for (int i = 0; i < candidate.s_span.len; ++i) {
      if (s_covered[candidate.s_span.line][candidate.s_span.pos + i]) s_free = false;
    }
    if (!s_free) continue;
    TryCover(candidate.r_span, &r_covered);
    TryCover(candidate.s_span, &s_covered);
    out.rewrites.push_back(RewriteMatch{candidate.r_span, candidate.s_span});
  }

  out.r_only = RegionTerms(r, r_regions, kMaxNgram);
  out.s_only = RegionTerms(s, s_regions, kMaxNgram);
  AppendShiftRewrites(r, s, r_covered, s_covered, kMaxNgram, &out.rewrites);
  return out;
}

}  // namespace microbrowse
