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

PairTokens::PairTokens(const Snippet& r, const Snippet& s) {
  const Snippet* sides[2] = {&r, &s};
  const size_t total = static_cast<size_t>(r.num_tokens()) + static_cast<size_t>(s.num_tokens());
  ids_.reserve(total);
  // Open addressing over the token pieces: a slot holds id + 1 (0 = empty)
  // and `first[id]` the token that id was given to, for the exact compare.
  const size_t capacity = std::bit_ceil(std::max<size_t>(8, 2 * total));
  const size_t mask = capacity - 1;
  std::vector<TokenId> slots(capacity, 0);
  std::vector<const std::string*> first;
  for (int side = 0; side < 2; ++side) {
    const Snippet& snippet = *sides[side];
    line_begin_[side].reserve(static_cast<size_t>(snippet.num_lines()) + 1);
    for (const std::vector<std::string>& line : snippet.lines()) {
      line_begin_[side].push_back(static_cast<uint32_t>(ids_.size()));
      for (const std::string& token : line) {
        const uint64_t piece = TokenHashPiece(token);
        size_t slot = Mix64(piece) & mask;
        while (slots[slot] != 0 && *first[slots[slot] - 1] != token) slot = (slot + 1) & mask;
        if (slots[slot] == 0) {
          slots[slot] = static_cast<TokenId>(pieces_.size()) + 1;
          pieces_.push_back(piece);
          first.push_back(&token);
        }
        ids_.push_back(slots[slot] - 1);
      }
    }
    line_begin_[side].push_back(static_cast<uint32_t>(ids_.size()));
  }
}

}  // namespace microbrowse
