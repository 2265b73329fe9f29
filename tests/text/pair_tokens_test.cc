// Copyright 2026 The Microbrowse Authors

#include "text/pair_tokens.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "text/diff.h"
#include "text/ngram.h"

namespace microbrowse {
namespace {

/// Tokens that collide under naive splitting or sort below the joining
/// space, plus the empty token.
const std::vector<std::string>& OddTokens() {
  static const std::vector<std::string> tokens = {
      "a", "b", "", "a\x01", "\x01", "=>", "x=>y", "caf\xc3\xa9", "abcdefghijklmnopq", "\xff"};
  return tokens;
}

Snippet RandomSnippet(Rng* rng) {
  std::vector<std::vector<std::string>> lines(rng->NextIndex(4));
  for (auto& line : lines) {
    line.resize(rng->NextIndex(7));
    for (std::string& token : line) token = OddTokens()[rng->NextIndex(OddTokens().size())];
  }
  return Snippet::FromTokens(std::move(lines));
}

TEST(PairTokensTest, IdsAreEqualExactlyWhenTokensAre) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const Snippet r = RandomSnippet(&rng);
    const Snippet s = RandomSnippet(&rng);
    const PairTokens tokens(r, s);
    std::vector<std::pair<const std::string*, TokenId>> all;
    for (PairSide side : {PairSide::kR, PairSide::kS}) {
      const Snippet& snippet = side == PairSide::kR ? r : s;
      for (int line = 0; line < snippet.num_lines(); ++line) {
        const auto ids = tokens.Line(side, line);
        ASSERT_EQ(ids.size(), snippet.line(line).size());
        for (size_t pos = 0; pos < ids.size(); ++pos) {
          ASSERT_LT(ids[pos], tokens.num_ids());
          all.emplace_back(&snippet.line(line)[pos], ids[pos]);
        }
      }
      EXPECT_TRUE(tokens.Line(side, snippet.num_lines()).empty());
    }
    ASSERT_EQ(all.size(), tokens.num_positions());
    for (const auto& [a_text, a_id] : all) {
      for (const auto& [b_text, b_id] : all) {
        ASSERT_EQ(*a_text == *b_text, a_id == b_id) << *a_text << " vs " << *b_text;
      }
    }
  }
}

TEST(PairTokensTest, SpanHashIsThePhraseHashOfTheSpanText) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const Snippet r = RandomSnippet(&rng);
    const Snippet s = RandomSnippet(&rng);
    const PairTokens tokens(r, s);
    for (PairSide side : {PairSide::kR, PairSide::kS}) {
      const Snippet& snippet = side == PairSide::kR ? r : s;
      for (const TermSpan& span : ExtractNGrams(snippet, 3)) {
        ASSERT_EQ(tokens.SpanHash(side, span), PhraseHash(snippet.SpanText(span)))
            << "'" << snippet.SpanText(span) << "'";
      }
    }
  }
}

TEST(PairTokensTest, EqualIdTuplesAreEqualTexts) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const Snippet r = RandomSnippet(&rng);
    const Snippet s = RandomSnippet(&rng);
    const PairTokens tokens(r, s);
    for (const TermSpan& a : ExtractNGrams(r, 3)) {
      for (const TermSpan& b : ExtractNGrams(s, 3)) {
        const TokenId* a_ids = tokens.SpanIds(PairSide::kR, a);
        ASSERT_EQ(a.len == b.len && std::equal(a_ids, a_ids + a.len,
                                               tokens.SpanIds(PairSide::kS, b)),
                  r.SpanText(a) == s.SpanText(b));
      }
    }
  }
}

TEST(PairTokensTest, IdDiffEqualsTokenDiff) {
  Rng rng(43);
  std::vector<int> table;
  for (int trial = 0; trial < 500; ++trial) {
    const Snippet r = RandomSnippet(&rng);
    const Snippet s = RandomSnippet(&rng);
    const PairTokens tokens(r, s);
    for (int line = 0; line < std::min(r.num_lines(), s.num_lines()); ++line) {
      std::vector<TokenMatch> want_matches;
      const auto want = TokenDiff(r.line(line), s.line(line), &want_matches);
      std::vector<DiffHunk> got = {DiffHunk{9, 9, 9, 9}};  // Appended after.
      std::vector<TokenMatch> got_matches;
      AppendTokenDiff(tokens.Line(PairSide::kR, line), tokens.Line(PairSide::kS, line), &table,
                      &got, &got_matches);
      got.erase(got.begin());
      EXPECT_EQ(got, want);
      EXPECT_EQ(got_matches, want_matches);
      EXPECT_EQ(LcsLength(r.line(line), s.line(line)), static_cast<int>(want_matches.size()));
    }
  }
}

}  // namespace
}  // namespace microbrowse
