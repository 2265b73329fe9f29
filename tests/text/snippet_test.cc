// Copyright 2026 The Microbrowse Authors

#include "text/snippet.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "text/ngram.h"

namespace microbrowse {
namespace {

Snippet PaperSnippetR() {
  // The paper's Section IV-A example, Snippet 1.
  return Snippet::FromLines({"XYZ Airlines", "Find cheap flights to New York.",
                             "No reservation costs. Great rates"});
}

TEST(SnippetTest, FromLinesTokenizes) {
  const Snippet snippet = PaperSnippetR();
  ASSERT_EQ(snippet.num_lines(), 3);
  EXPECT_EQ(snippet.line(0), (std::vector<std::string>{"xyz", "airlines"}));
  EXPECT_EQ(snippet.line(1),
            (std::vector<std::string>{"find", "cheap", "flights", "to", "new", "york"}));
  EXPECT_EQ(snippet.num_tokens(), 2 + 6 + 5);
}

TEST(SnippetTest, FromTokensKeepsTokensVerbatim) {
  const Snippet snippet = Snippet::FromTokens({{"A", "B"}, {}});
  ASSERT_EQ(snippet.num_lines(), 2);
  EXPECT_EQ(snippet.line(0), (std::vector<std::string>{"A", "B"}));
  EXPECT_TRUE(snippet.line(1).empty());
}

TEST(SnippetTest, SpanText) {
  const Snippet snippet = PaperSnippetR();
  EXPECT_EQ(snippet.SpanText(1, 0, 2), "find cheap");
  EXPECT_EQ(snippet.SpanText(1, 2, 1), "flights");
  EXPECT_EQ(snippet.SpanText(0, 0, 2), "xyz airlines");
}

TEST(SnippetTest, ToStringJoinsLines) {
  const Snippet snippet = Snippet::FromTokens({{"a", "b"}, {"c"}});
  EXPECT_EQ(snippet.ToString(), "a b / c");
}

TEST(SnippetTest, Equality) {
  EXPECT_EQ(PaperSnippetR(), PaperSnippetR());
  EXPECT_FALSE(PaperSnippetR() == Snippet::FromTokens({{"x"}}));
}

TEST(SnippetTest, EmptySnippet) {
  Snippet snippet;
  EXPECT_EQ(snippet.num_lines(), 0);
  EXPECT_EQ(snippet.num_tokens(), 0);
  EXPECT_EQ(snippet.ToString(), "");
}

TEST(SnippetTest, ParseEqualsFromLinesOfTheSplitPieces) {
  // One snippet parsed into again and again, through texts with more and
  // fewer lines and tokens than the last, must hold exactly what a fresh
  // FromLines(Split(...)) holds.
  Snippet reused;
  for (const char* text :
       {"XYZ Airlines|Find cheap flights to New York.|No reservation costs. Great rates",
        "a", "", "|", "a||b|", "  $99 deals | 20% off | it's here ", "one|two",
        "A very long token: supercalifragilisticexpialidocious|x|y|z|w",
        "Find cheap flights"}) {
    const Snippet want = Snippet::FromLines(Split(text, '|'));
    Snippet fresh;
    ASSERT_TRUE(Snippet::Parse(text, '|', &fresh).ok()) << text;
    EXPECT_EQ(fresh, want) << text;
    ASSERT_TRUE(Snippet::Parse(text, '|', &reused).ok()) << text;
    EXPECT_EQ(reused, want) << text;
  }
}

TEST(SnippetTest, ParseRefusesALineOverTheTokenCap) {
  std::string line = "w0";
  for (size_t i = 1; i < kMaxLineTokens; ++i) line += " w" + std::to_string(i);
  Snippet snippet;
  ASSERT_TRUE(Snippet::Parse("head|" + line, '|', &snippet).ok());
  EXPECT_EQ(snippet.line(1).size(), kMaxLineTokens);
  const Status over = Snippet::Parse("head|" + line + " one-more|tail", '|', &snippet);
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(over.message(), "snippet line 2 holds 1026 tokens, over the cap of 1024");
  EXPECT_TRUE(CheckLineTokens(0, kMaxLineTokens).ok());
  EXPECT_EQ(CheckLineTokens(0, kMaxLineTokens + 1).message(),
            "snippet line 1 holds 1025 tokens, over the cap of 1024");
}

TEST(TokenInvariantTest, FromTokensRejectsATokenWithASpace) {
  // A token holding a space would make "a b" + "c" and "a" + "b c" the same
  // text with different tokens; the check survives NDEBUG builds.
  EXPECT_DEATH(Snippet::FromTokens({{"ok"}, {"a b", "c"}}), "contains a space");
  EXPECT_EQ(Snippet::FromTokens({{"a\tb", "\x01"}}).num_tokens(), 2);
}

// --- ngram.h

TEST(NGramTest, ExtractsAllOrders) {
  const Snippet snippet = Snippet::FromTokens({{"a", "b", "c"}});
  const auto spans = ExtractNGrams(snippet, 3);
  // 3 unigrams + 2 bigrams + 1 trigram.
  EXPECT_EQ(spans.size(), 6u);
  EXPECT_EQ(snippet.SpanText(spans.front()), "a");
  bool found_trigram = false;
  for (const auto& span : spans) {
    if (span.len == 3) {
      found_trigram = true;
      EXPECT_EQ(snippet.SpanText(span), "a b c");
      EXPECT_EQ(span.pos, 0);
    }
  }
  EXPECT_TRUE(found_trigram);
}

TEST(NGramTest, RespectsMaxOrder) {
  const Snippet snippet = Snippet::FromTokens({{"a", "b", "c", "d"}});
  for (const auto& span : ExtractNGrams(snippet, 2)) {
    EXPECT_LE(span.len, 2);
  }
  EXPECT_EQ(ExtractNGrams(snippet, 1).size(), 4u);
}

TEST(NGramTest, NGramsNeverSpanLines) {
  const Snippet snippet = Snippet::FromTokens({{"a", "b"}, {"c", "d"}});
  for (const auto& span : ExtractNGrams(snippet, 3)) {
    EXPECT_NE(snippet.SpanText(span), "b c");
    EXPECT_NE(snippet.SpanText(span), "a b c");
  }
}

TEST(NGramTest, SpanPositionsAreConsistent) {
  const Snippet snippet = Snippet::FromTokens({{"x"}, {"a", "b", "c"}});
  for (const auto& span : ExtractNGrams(snippet, 3)) {
    const auto& tokens = snippet.line(span.line);
    EXPECT_EQ(snippet.SpanText(span),
              Join(std::vector<std::string>(tokens.begin() + span.pos,
                                            tokens.begin() + span.pos + span.len),
                   " "));
  }
}

TEST(NGramTest, WindowExtraction) {
  const Snippet snippet = Snippet::FromTokens({{"a", "b", "c", "d", "e"}});
  const auto spans = ExtractNGramsInWindow(snippet, 0, 1, 3, 2);
  // Window [b, c, d]: unigrams b, c, d; bigrams "b c", "c d".
  EXPECT_EQ(spans.size(), 5u);
  for (const auto& span : spans) {
    EXPECT_GE(span.pos, 1);
    EXPECT_LE(span.pos + span.len, 4);
  }
}

TEST(NGramTest, WindowClampsToLine) {
  const Snippet snippet = Snippet::FromTokens({{"a", "b"}});
  const auto spans = ExtractNGramsInWindow(snippet, 0, 1, 100, 3);
  EXPECT_EQ(spans.size(), 1u);  // Just "b".
  EXPECT_TRUE(ExtractNGramsInWindow(snippet, 0, 5, 3, 3).empty());
}

TEST(NGramTest, EmptySnippetYieldsNothing) {
  EXPECT_TRUE(ExtractNGrams(Snippet(), 3).empty());
  EXPECT_TRUE(ExtractNGrams(Snippet::FromTokens({{}}), 3).empty());
}

}  // namespace
}  // namespace microbrowse
