// Copyright 2026 The Microbrowse Authors
//
// N-gram extraction over snippets. The paper's term features are unigrams,
// bigrams and trigrams, each carrying its line number and within-line
// position (Section IV-A).

#ifndef MICROBROWSE_TEXT_NGRAM_H_
#define MICROBROWSE_TEXT_NGRAM_H_

#include <vector>

#include "text/snippet.h"

namespace microbrowse {

/// The longest n-gram of every feature and rewrite candidate: unigrams,
/// bigrams and trigrams.
inline constexpr int kMaxNgram = 3;

/// Number of n-grams of length 1..max_n in a window of `count` tokens,
/// for sizing a buffer before AppendNGramsInWindow fills it.
inline size_t NumNGramsInWindow(int count, int max_n) {
  size_t total = 0;
  for (int len = 1; len <= max_n && len <= count; ++len) total += static_cast<size_t>(count - len + 1);
  return total;
}

/// Number of n-grams of length 1..max_n over every line of `snippet`.
size_t NumNGrams(const Snippet& snippet, int max_n);

/// Extracts all n-grams of length 1..max_n from every line of `snippet`,
/// in (line, pos, len) lexicographic order.
std::vector<TermSpan> ExtractNGrams(const Snippet& snippet, int max_n = kMaxNgram);

/// Extracts n-grams of length 1..max_n from a single token window
/// [begin, begin+count) of line `line`. Used to enumerate phrase candidates
/// inside diff regions.
std::vector<TermSpan> ExtractNGramsInWindow(const Snippet& snippet, int line, int begin, int count,
                                            int max_n = kMaxNgram);

/// ExtractNGramsInWindow, appending to `out` instead of returning a fresh
/// vector — lets callers gather several windows into one buffer.
void AppendNGramsInWindow(const Snippet& snippet, int line, int begin, int count, int max_n,
                          std::vector<TermSpan>* out);

}  // namespace microbrowse

#endif  // MICROBROWSE_TEXT_NGRAM_H_
