// Copyright 2026 The Microbrowse Authors

#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace microbrowse {
namespace {

TEST(TokenizerTest, BasicWords) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("Find cheap flights"),
            (std::vector<std::string>{"find", "cheap", "flights"}));
}

TEST(TokenizerTest, PunctuationIsDropped) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("No reservation costs. Great rates!"),
            (std::vector<std::string>{"no", "reservation", "costs", "great", "rates"}));
  EXPECT_EQ(tokenizer.Tokenize("Flying to New York? Get discounts."),
            (std::vector<std::string>{"flying", "to", "new", "york", "get", "discounts"}));
}

TEST(TokenizerTest, PercentStaysAttached) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("20% off"), (std::vector<std::string>{"20%", "off"}));
}

TEST(TokenizerTest, DollarPrefixStaysAttached) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("save $50 today"),
            (std::vector<std::string>{"save", "$50", "today"}));
}

TEST(TokenizerTest, LoneSymbolsAreDropped) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("$ % - a"), (std::vector<std::string>{"a"}));
}

TEST(TokenizerTest, ApostrophesStayInsideWords) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("today's deals"),
            (std::vector<std::string>{"today's", "deals"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.Tokenize("").empty());
  EXPECT_TRUE(tokenizer.Tokenize("   \t ").empty());
  EXPECT_TRUE(tokenizer.Tokenize("...!?").empty());
}

TEST(TokenizerTest, LowercasingCanBeDisabled) {
  TokenizerOptions options;
  options.lowercase = false;
  Tokenizer tokenizer(options);
  EXPECT_EQ(tokenizer.Tokenize("New York"), (std::vector<std::string>{"New", "York"}));
}

TEST(TokenizerTest, OfferSymbolsCanBeDisabled) {
  TokenizerOptions options;
  options.keep_offer_symbols = false;
  Tokenizer tokenizer(options);
  EXPECT_EQ(tokenizer.Tokenize("20% off $50"),
            (std::vector<std::string>{"20", "off", "50"}));
}

TEST(TokenizerTest, NumbersAreTokens) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("24 7 support"),
            (std::vector<std::string>{"24", "7", "support"}));
}

TEST(TokenizerTest, MixedAlphanumericTokens) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("save10 4k"), (std::vector<std::string>{"save10", "4k"}));
}

// The per-pair token ids (text/pair_tokens.h) stand for texts only while
// no token holds a space: then a phrase's text determines its tokens.
TEST(TokenizerTest, TokenizeIntoReusesTheVectorAndRespectsTheLimit) {
  Tokenizer tokenizer;
  std::vector<std::string> tokens = {"stale", "a-much-longer-stale-token-than-sso", "x", "y"};
  EXPECT_EQ(tokenizer.TokenizeInto("$99 Deals, 20% off!", 10, &tokens), 4u);
  EXPECT_EQ(tokens, tokenizer.Tokenize("$99 Deals, 20% off!"));
  EXPECT_EQ(tokenizer.TokenizeInto("just two", 10, &tokens), 2u);
  EXPECT_EQ(tokens, (std::vector<std::string>{"just", "two"}));
  // Over the limit: counted, and the vector is left as it was.
  EXPECT_EQ(tokenizer.TokenizeInto("one two three", 2, &tokens), 3u);
  EXPECT_EQ(tokens, (std::vector<std::string>{"just", "two"}));
  EXPECT_EQ(tokenizer.TokenizeInto("", 0, &tokens), 0u);
  EXPECT_TRUE(tokens.empty());
}

TEST(TokenInvariantTest, TokenizerNeverProducesSpacesOrEmptyTokens) {
  Rng rng(404);
  const Tokenizer tokenizers[] = {Tokenizer(), Tokenizer(TokenizerOptions{false, false})};
  size_t tokens = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text(rng.NextIndex(40), ' ');
    for (char& c : text) {
      // Mostly the bytes that shape tokens, now and then any byte at all.
      static const char kShaping[] = " \t\n\v\f\r$%'a0.-Z";
      c = rng.NextIndex(4) == 0 ? static_cast<char>(rng.NextIndex(256))
                                : kShaping[rng.NextIndex(sizeof(kShaping) - 1)];
    }
    for (const Tokenizer& tokenizer : tokenizers) {
      for (const std::string& token : tokenizer.Tokenize(text)) {
        EXPECT_FALSE(token.empty());
        EXPECT_EQ(token.find(' '), std::string::npos) << "'" << token << "'";
        ++tokens;
      }
    }
  }
  EXPECT_GT(tokens, 10000u);
}

}  // namespace
}  // namespace microbrowse
