// Copyright 2026 The Microbrowse Authors

#include "text/ngram.h"

#include <algorithm>
#include <cassert>

namespace microbrowse {

void AppendNGramsInWindow(const Snippet& snippet, int line, int begin, int count, int max_n,
                          std::vector<TermSpan>* out) {
  assert(line >= 0 && line < snippet.num_lines());
  const int line_size = static_cast<int>(snippet.line(line).size());
  begin = std::clamp(begin, 0, line_size);
  const int end = std::clamp(begin + count, begin, line_size);
  for (int pos = begin; pos < end; ++pos) {
    const int max_len = std::min(max_n, end - pos);
    for (int len = 1; len <= max_len; ++len) {
      out->push_back(TermSpan{line, pos, len});
    }
  }
}

std::vector<TermSpan> ExtractNGramsInWindow(const Snippet& snippet, int line, int begin, int count,
                                            int max_n) {
  std::vector<TermSpan> spans;
  AppendNGramsInWindow(snippet, line, begin, count, max_n, &spans);
  return spans;
}

size_t NumNGrams(const Snippet& snippet, int max_n) {
  size_t total = 0;
  for (const auto& line : snippet.lines()) {
    total += NumNGramsInWindow(static_cast<int>(line.size()), max_n);
  }
  return total;
}

std::vector<TermSpan> ExtractNGrams(const Snippet& snippet, int max_n) {
  std::vector<TermSpan> spans;
  spans.reserve(NumNGrams(snippet, max_n));
  for (int line = 0; line < snippet.num_lines(); ++line) {
    const int line_size = static_cast<int>(snippet.line(line).size());
    AppendNGramsInWindow(snippet, line, 0, line_size, max_n, &spans);
  }
  return spans;
}

}  // namespace microbrowse
