// Copyright 2026 The Microbrowse Authors
//
// Snippet tokenization. Creative text like "No reservation costs. Great
// rates!" becomes the token stream {no, reservation, costs, great, rates}.
// Tokens such as "20%" and "$99" are kept whole because offer markers are
// exactly the kind of salient term the micro-browsing model cares about.

#ifndef MICROBROWSE_TEXT_TOKENIZER_H_
#define MICROBROWSE_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace microbrowse {

/// Tokenizer configuration.
struct TokenizerOptions {
  /// Lower-case ASCII letters in tokens.
  bool lowercase = true;
  /// Keep '%' and '$' attached to numeric tokens ("20%", "$99").
  bool keep_offer_symbols = true;
};

/// Splits text into word tokens. Stateless and cheap to copy.
class Tokenizer {
 public:
  Tokenizer() = default;
  explicit Tokenizer(TokenizerOptions options) : options_(options) {}

  /// Tokenizes one line of snippet text.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Counts the tokens of `text` and, when there are at most `max_tokens`,
  /// tokenizes it into `*tokens`, resized to the count. The strings already
  /// in `*tokens` are overwritten in place, so a caller that reuses one
  /// vector allocates only for a token longer than any its slot held.
  /// Returns the count; `*tokens` is untouched when it exceeds `max_tokens`.
  size_t TokenizeInto(std::string_view text, size_t max_tokens,
                      std::vector<std::string>* tokens) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  TokenizerOptions options_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_TEXT_TOKENIZER_H_
