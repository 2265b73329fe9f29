// Copyright 2026 The Microbrowse Authors

#include "text/tokenizer.h"

#include <array>
#include <cctype>

namespace microbrowse {

namespace {

/// Word characters: std::isalnum in the "C" locale the program runs in,
/// and the apostrophe, tabulated once because every byte is tested twice.
const std::array<bool, 256> kWordChars = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) table[c] = std::isalnum(c) != 0 || c == '\'';
  return table;
}();

bool IsWordChar(char c) { return kWordChars[static_cast<unsigned char>(c)]; }

}  // namespace

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  TokenizeInto(text, static_cast<size_t>(-1), &tokens);
  return tokens;
}

size_t Tokenizer::TokenizeInto(std::string_view text, size_t max_tokens,
                               std::vector<std::string>* tokens) const {
  const size_t n = text.size();
  // Each token is one maximal run of word characters (plus a '$' before
  // it or a '%' after it), so counting the runs sizes the vector exactly.
  size_t runs = 0;
  bool in_run = false;
  for (const char c : text) {
    const bool word = IsWordChar(c);
    runs += word && !in_run;
    in_run = word;
  }
  if (runs > max_tokens) return runs;
  tokens->resize(runs);
  auto next = tokens->begin();
  size_t i = 0;
  while (i < n) {
    // '$' opens a token when followed by an alphanumeric ("$99").
    const bool dollar_start = options_.keep_offer_symbols && text[i] == '$' && i + 1 < n &&
                              IsWordChar(text[i + 1]);
    if (!IsWordChar(text[i]) && !dollar_start) {
      ++i;
      continue;
    }
    // The token is the contiguous text from the '$' or first word
    // character through the last word character or the '%'.
    const size_t start = i;
    if (dollar_start) ++i;
    while (i < n && IsWordChar(text[i])) ++i;
    // '%' closes a token when it directly follows it ("20%").
    if (options_.keep_offer_symbols && i < n && text[i] == '%') ++i;
    std::string& token = *next++;
    token.assign(text.substr(start, i - start));
    if (options_.lowercase) {
      for (char& c : token) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return runs;
}

}  // namespace microbrowse
