// Copyright 2026 The Microbrowse Authors

#include "text/snippet.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "common/string_util.h"

namespace microbrowse {

Snippet Snippet::FromLines(const std::vector<std::string>& raw_lines, const Tokenizer& tokenizer) {
  Snippet snippet;
  snippet.lines_.reserve(raw_lines.size());
  for (const auto& raw : raw_lines) {
    snippet.lines_.push_back(tokenizer.Tokenize(raw));
  }
  return snippet;
}

Status CheckLineTokens(size_t line, size_t tokens) {
  if (tokens <= kMaxLineTokens) return Status::OK();
  return Status::InvalidArgument(StrFormat("snippet line %zu holds %zu tokens, over the cap of %zu",
                                           line + 1, tokens, kMaxLineTokens));
}

Status Snippet::Parse(std::string_view text, char separator, Snippet* out,
                      const Tokenizer& tokenizer) {
  out->lines_.resize(static_cast<size_t>(std::count(text.begin(), text.end(), separator)) + 1);
  size_t start = 0;
  for (size_t line = 0; line < out->lines_.size(); ++line) {
    const size_t end = std::min(text.find(separator, start), text.size());
    const size_t tokens =
        tokenizer.TokenizeInto(text.substr(start, end - start), kMaxLineTokens, &out->lines_[line]);
    MB_RETURN_IF_ERROR(CheckLineTokens(line, tokens));
    start = end + 1;
  }
  return Status::OK();
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
