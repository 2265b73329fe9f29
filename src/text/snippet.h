// Copyright 2026 The Microbrowse Authors
//
// The snippet representation used throughout the micro-browsing model: a
// result snippet (or ad creative) is a short list of lines, each line a
// sequence of word tokens with meaningful positions. Positions are 0-based
// internally; the paper's prose uses 1-based positions.

#ifndef MICROBROWSE_TEXT_SNIPPET_H_
#define MICROBROWSE_TEXT_SNIPPET_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "text/tokenizer.h"

namespace microbrowse {

/// Most tokens one snippet line may hold where snippet text enters the
/// program: the serving protocol, mbctl's snippet flags and pair files, and
/// the TSV corpus loader refuse a longer line. The token diff of two lines
/// fills an (n + 1) x (m + 1) int table, so the cap bounds it at ~4 MB.
inline constexpr size_t kMaxLineTokens = 1024;

/// InvalidArgument naming snippet line `line` (0-based) when its `tokens`
/// are over kMaxLineTokens; OK otherwise.
Status CheckLineTokens(size_t line, size_t tokens);

/// A contiguous phrase inside a snippet: `len` tokens starting at token
/// index `pos` of line `line`. A span carries no text; its snippet spells
/// it (Snippet::SpanText, AppendSpanText).
struct TermSpan {
  int line = 0;
  int pos = 0;
  int len = 1;

  friend bool operator==(const TermSpan& a, const TermSpan& b) {
    return a.line == b.line && a.pos == b.pos && a.len == b.len;
  }
};

/// A tokenized snippet: lines of tokens. No token contains a space, so a
/// phrase's text (its tokens joined by ' ') determines its tokens, and two
/// phrases have equal text exactly when their tokens are equal.
class Snippet {
 public:
  Snippet() = default;

  /// Builds a snippet by tokenizing each raw text line.
  static Snippet FromLines(const std::vector<std::string>& raw_lines,
                           const Tokenizer& tokenizer = Tokenizer());

  /// Tokenizes each `separator`-delimited piece of `text` as one line into
  /// `*out`: the lines of FromLines(Split(text, separator)), without
  /// spelling the pieces. The lines and token strings `*out` already holds
  /// are reused, so parsing into one snippet again and again allocates only
  /// to grow it. InvalidArgument naming the line when one holds more than
  /// kMaxLineTokens tokens; `*out` is then unspecified.
  static Status Parse(std::string_view text, char separator, Snippet* out,
                      const Tokenizer& tokenizer = Tokenizer());

  /// Builds a snippet from already-tokenized lines. Aborts (MB_CHECK) when
  /// a token contains a space.
  static Snippet FromTokens(std::vector<std::vector<std::string>> token_lines);

  /// Number of lines.
  int num_lines() const { return static_cast<int>(lines_.size()); }

  /// Tokens of line `line` (0-based); `line` must be in range.
  const std::vector<std::string>& line(int line) const { return lines_[line]; }

  /// All lines.
  const std::vector<std::vector<std::string>>& lines() const { return lines_; }

  /// Total number of tokens across lines.
  int num_tokens() const;

  /// The phrase text for a span (tokens joined by ' '). The span must lie
  /// within bounds.
  std::string SpanText(int line, int pos, int len) const;
  std::string SpanText(const TermSpan& span) const {
    return SpanText(span.line, span.pos, span.len);
  }

  /// Appends the phrase text of `span` to `out`: lets callers spell keys
  /// into a buffer they reuse.
  void AppendSpanText(const TermSpan& span, std::string* out) const;

  /// Renders the snippet as lines joined by " / " — for logs and tests.
  std::string ToString() const;

  friend bool operator==(const Snippet& a, const Snippet& b) { return a.lines_ == b.lines_; }

 private:
  std::vector<std::vector<std::string>> lines_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_TEXT_SNIPPET_H_
