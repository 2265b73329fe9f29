// Copyright 2026 The Microbrowse Authors

#include "text/snippet.h"

#include <cassert>

#include "common/logging.h"

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
  for (const auto& line : token_lines) {
    for (const std::string& token : line) {
      MB_CHECK(token.find(' ') == std::string::npos)
          << "snippet token '" << token << "' contains a space";
    }
  }
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
  std::string out;
  AppendSpanText(TermSpan{line, pos, len}, &out);
  return out;
}

void Snippet::AppendSpanText(const TermSpan& span, std::string* out) const {
  assert(span.line >= 0 && span.line < num_lines());
  const auto& tokens = lines_[span.line];
  assert(span.pos >= 0 && span.len >= 1 &&
         static_cast<size_t>(span.pos + span.len) <= tokens.size());
  size_t size = out->size() + static_cast<size_t>(span.len - 1);
  for (int i = 0; i < span.len; ++i) size += tokens[span.pos + i].size();
  out->reserve(size);
  out->append(tokens[span.pos]);
  for (int i = 1; i < span.len; ++i) {
    out->push_back(' ');
    out->append(tokens[span.pos + i]);
  }
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
