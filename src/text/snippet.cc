// Copyright 2026 The Microbrowse Authors

#include "text/snippet.h"

#include <cassert>

namespace microbrowse {

Snippet Snippet::FromLines(const std::vector<std::string>& raw_lines, const Tokenizer& tokenizer) {
  Snippet snippet;
  snippet.lines_.reserve(raw_lines.size());
  for (const auto& raw : raw_lines) {
    snippet.lines_.push_back(tokenizer.Tokenize(raw));
  }
  return snippet;
}

Snippet Snippet::FromTokens(std::vector<std::vector<std::string>> token_lines) {
  Snippet snippet;
  snippet.lines_ = std::move(token_lines);
  return snippet;
}

int Snippet::num_tokens() const {
  int total = 0;
  for (const auto& line : lines_) total += static_cast<int>(line.size());
  return total;
}

std::string Snippet::SpanText(int line, int pos, int len) const {
  assert(line >= 0 && line < num_lines());
  const auto& tokens = lines_[line];
  assert(pos >= 0 && len >= 1 && static_cast<size_t>(pos + len) <= tokens.size());
  size_t size = static_cast<size_t>(len - 1);
  for (int i = 0; i < len; ++i) size += tokens[pos + i].size();
  std::string out;
  out.reserve(size);
  out.append(tokens[pos]);
  for (int i = 1; i < len; ++i) {
    out.push_back(' ');
    out.append(tokens[pos + i]);
  }
  return out;
}

std::string Snippet::ToString() const {
  std::string out;
  for (size_t l = 0; l < lines_.size(); ++l) {
    if (l > 0) out.append(" / ");
    for (size_t t = 0; t < lines_[l].size(); ++t) {
      if (t > 0) out.push_back(' ');
      out.append(lines_[l][t]);
    }
  }
  return out;
}

}  // namespace microbrowse
