// Copyright 2026 The Microbrowse Authors

#include "text/pair_tokens.h"

#include <algorithm>
#include <bit>
#include <string>

namespace microbrowse {

uint64_t PhraseHash(std::string_view text) {
  // Fnv1a64 of each token, run inline and restarted at every space.
  uint64_t piece = kFnv64Basis;
  uint64_t hash = 0;
  bool first = true;
  for (unsigned char c : text) {
    if (c != ' ') {
      piece = (piece ^ c) * kFnv64Prime;
      continue;
    }
    hash = first ? piece : FoldPhraseHash(hash, piece);
    first = false;
    piece = kFnv64Basis;
  }
  return first ? piece : FoldPhraseHash(hash, piece);
}

void PairTokens::Reset(const Snippet& r, const Snippet& s) {
  const Snippet* sides[2] = {&r, &s};
  const size_t total = static_cast<size_t>(r.num_tokens()) + static_cast<size_t>(s.num_tokens());
  ids_.clear();
  ids_.reserve(total);
  pieces_.clear();
  pieces_.reserve(total);
  first_.clear();
  first_.reserve(total);
  const size_t capacity = std::bit_ceil(std::max<size_t>(8, 2 * total));
  const size_t mask = capacity - 1;
  slots_.assign(capacity, 0);
  for (int side = 0; side < 2; ++side) {
    const Snippet& snippet = *sides[side];
    line_begin_[side].clear();
    line_begin_[side].reserve(static_cast<size_t>(snippet.num_lines()) + 1);
    for (const std::vector<std::string>& line : snippet.lines()) {
      line_begin_[side].push_back(static_cast<uint32_t>(ids_.size()));
      for (const std::string& token : line) {
        const uint64_t piece = TokenHashPiece(token);
        size_t slot = Mix64(piece) & mask;
        while (slots_[slot] != 0 && *first_[slots_[slot] - 1] != token) slot = (slot + 1) & mask;
        if (slots_[slot] == 0) {
          slots_[slot] = static_cast<TokenId>(pieces_.size()) + 1;
          pieces_.push_back(piece);
          first_.push_back(&token);
        }
        ids_.push_back(slots_[slot] - 1);
      }
    }
    line_begin_[side].push_back(static_cast<uint32_t>(ids_.size()));
  }
  first_.clear();  // Its pointers are into r and s.
}

}  // namespace microbrowse
