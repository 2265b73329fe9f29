// Copyright 2026 The Microbrowse Authors

#include "text/diff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"

namespace microbrowse {
namespace {

std::vector<std::string> Tokens(std::initializer_list<const char*> items) {
  return std::vector<std::string>(items.begin(), items.end());
}

TEST(DiffTest, IdenticalSequencesHaveNoHunks) {
  const auto a = Tokens({"a", "b", "c"});
  EXPECT_TRUE(TokenDiff(a, a).empty());
}

TEST(DiffTest, EmptySequences) {
  EXPECT_TRUE(TokenDiff({}, {}).empty());
  const auto hunks = TokenDiff(Tokens({"a", "b"}), {});
  ASSERT_EQ(hunks.size(), 1u);
  EXPECT_EQ(hunks[0], (DiffHunk{0, 2, 0, 0}));
  const auto hunks2 = TokenDiff({}, Tokens({"x"}));
  ASSERT_EQ(hunks2.size(), 1u);
  EXPECT_EQ(hunks2[0], (DiffHunk{0, 0, 0, 1}));
}

TEST(DiffTest, SingleSubstitution) {
  const auto hunks = TokenDiff(Tokens({"find", "cheap", "flights"}),
                               Tokens({"find", "best", "flights"}));
  ASSERT_EQ(hunks.size(), 1u);
  EXPECT_EQ(hunks[0], (DiffHunk{1, 1, 1, 1}));
}

TEST(DiffTest, ReplacementWithDifferentLengths) {
  const auto hunks = TokenDiff(Tokens({"find", "cheap", "flights"}),
                               Tokens({"get", "discounts", "on", "flights"}));
  ASSERT_EQ(hunks.size(), 1u);
  EXPECT_EQ(hunks[0], (DiffHunk{0, 2, 0, 3}));
}

TEST(DiffTest, PureInsertionAndDeletion) {
  const auto ins = TokenDiff(Tokens({"a", "c"}), Tokens({"a", "b", "c"}));
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0], (DiffHunk{1, 0, 1, 1}));

  const auto del = TokenDiff(Tokens({"a", "b", "c"}), Tokens({"a", "c"}));
  ASSERT_EQ(del.size(), 1u);
  EXPECT_EQ(del[0], (DiffHunk{1, 1, 1, 0}));
}

TEST(DiffTest, MultipleHunks) {
  const auto hunks = TokenDiff(Tokens({"a", "x", "b", "y", "c"}),
                               Tokens({"a", "p", "b", "q", "c"}));
  ASSERT_EQ(hunks.size(), 2u);
  EXPECT_EQ(hunks[0], (DiffHunk{1, 1, 1, 1}));
  EXPECT_EQ(hunks[1], (DiffHunk{3, 1, 3, 1}));
}

TEST(DiffTest, TrailingChange) {
  const auto hunks = TokenDiff(Tokens({"a", "b"}), Tokens({"a", "z", "w"}));
  ASSERT_EQ(hunks.size(), 1u);
  EXPECT_EQ(hunks[0], (DiffHunk{1, 1, 1, 2}));
}

TEST(LcsLengthTest, KnownValues) {
  EXPECT_EQ(LcsLength(Tokens({"a", "b", "c"}), Tokens({"a", "b", "c"})), 3);
  EXPECT_EQ(LcsLength(Tokens({"a", "b", "c"}), Tokens({"x", "y"})), 0);
  EXPECT_EQ(LcsLength(Tokens({"a", "b", "c", "d"}), Tokens({"b", "d"})), 2);
  EXPECT_EQ(LcsLength({}, Tokens({"a"})), 0);
}

TEST(DiffTest, MatchesReportTheLcs) {
  std::vector<TokenMatch> matches;
  const auto a = Tokens({"no", "reservation", "costs", "great", "rates"});
  const auto b = Tokens({"no", "hidden", "costs", "great", "deals"});
  TokenDiff(a, b, &matches);
  ASSERT_EQ(matches.size(), 3u);  // no, costs, great.
  for (const auto& match : matches) {
    EXPECT_EQ(a[match.a_index], b[match.b_index]);
  }
  EXPECT_EQ(static_cast<int>(matches.size()), LcsLength(a, b));
}

/// Applies the hunks to `a` and checks the result equals `b` — the
/// defining property of a correct diff.
std::vector<std::string> ApplyHunks(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b,
                                    const std::vector<DiffHunk>& hunks) {
  std::vector<std::string> out;
  int a_pos = 0;
  for (const DiffHunk& hunk : hunks) {
    while (a_pos < hunk.a_pos) out.push_back(a[a_pos++]);
    a_pos += hunk.a_len;  // Drop deleted tokens.
    for (int j = 0; j < hunk.b_len; ++j) out.push_back(b[hunk.b_pos + j]);
  }
  while (a_pos < static_cast<int>(a.size())) out.push_back(a[a_pos++]);
  return out;
}

class DiffPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffPropertyTest, ApplyingHunksReconstructsTarget) {
  Rng rng(GetParam());
  const std::vector<std::string> alphabet = {"a", "b", "c", "d"};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> a, b;
    const int na = static_cast<int>(rng.NextIndex(10));
    const int nb = static_cast<int>(rng.NextIndex(10));
    for (int i = 0; i < na; ++i) a.push_back(alphabet[rng.NextIndex(alphabet.size())]);
    for (int i = 0; i < nb; ++i) b.push_back(alphabet[rng.NextIndex(alphabet.size())]);
    const auto hunks = TokenDiff(a, b);
    EXPECT_EQ(ApplyHunks(a, b, hunks), b) << "trial " << trial;
    // Hunks are ordered and non-overlapping.
    for (size_t h = 1; h < hunks.size(); ++h) {
      EXPECT_GE(hunks[h].a_pos, hunks[h - 1].a_pos + hunks[h - 1].a_len);
      EXPECT_GE(hunks[h].b_pos, hunks[h - 1].b_pos + hunks[h - 1].b_len);
    }
    // Matched token count equals the LCS length (minimality).
    std::vector<TokenMatch> matches;
    TokenDiff(a, b, &matches);
    EXPECT_EQ(static_cast<int>(matches.size()), LcsLength(a, b));
  }
}

/// The diff as it was before the common prefix was trimmed: the walk over
/// the full (n + 1) x (m + 1) LCS table, kept verbatim as the reference.
std::vector<DiffHunk> FullTableDiff(const std::vector<TokenId>& a, const std::vector<TokenId>& b,
                                    std::vector<TokenMatch>* matches) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (int i = n - 1; i >= 0; --i) {
    for (int j = m - 1; j >= 0; --j) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1 : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::vector<DiffHunk> hunks;
  int i = 0, j = 0, hunk_a = -1, hunk_b = -1;
  auto open = [&] {
    if (hunk_a < 0) {
      hunk_a = i;
      hunk_b = j;
    }
  };
  auto close = [&] {
    if (hunk_a >= 0) hunks.push_back(DiffHunk{hunk_a, i - hunk_a, hunk_b, j - hunk_b});
    hunk_a = -1;
  };
  while (i < n && j < m) {
    if (a[i] == b[j]) {
      close();
      matches->push_back(TokenMatch{i++, j++});
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      open();
      ++i;
    } else {
      open();
      ++j;
    }
  }
  if (i < n || j < m) {
    open();
    i = n;
    j = m;
  }
  close();
  return hunks;
}

TEST_P(DiffPropertyTest, EqualsTheFullTableDiff) {
  // Small alphabets make repeats and ties common; a shared prefix of random
  // length makes the trimmed part long or empty.
  Rng rng(GetParam());
  std::vector<int> table;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t alphabet = 1 + rng.NextIndex(4);
    std::vector<TokenId> a, b;
    const size_t prefix = rng.NextIndex(6);
    for (size_t k = 0; k < prefix; ++k) a.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
    b = a;
    for (size_t k = rng.NextIndex(9); k > 0; --k) {
      a.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
    }
    for (size_t k = rng.NextIndex(9); k > 0; --k) {
      b.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
    }
    std::vector<TokenMatch> want_matches;
    const std::vector<DiffHunk> want = FullTableDiff(a, b, &want_matches);
    std::vector<DiffHunk> hunks;
    std::vector<TokenMatch> matches;
    AppendTokenDiff(a, b, &table, &hunks, &matches);
    EXPECT_EQ(hunks, want) << "trial " << trial;
    EXPECT_EQ(matches, want_matches) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(DiffTest, CommonPrefixIsNotTabulated) {
  // Two 3,000-token lines that differ in their last token: the LCS table
  // covers only the differing tail (2 x 2 cells), not 3,001 x 3,001.
  std::vector<TokenId> a(3000);
  for (size_t k = 0; k < a.size(); ++k) a[k] = static_cast<TokenId>(k % 7);
  std::vector<TokenId> b = a;
  b.back() = 99;
  std::vector<int> table;
  std::vector<DiffHunk> hunks;
  AppendTokenDiff(a, b, &table, &hunks, nullptr);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(hunks, (std::vector<DiffHunk>{{2999, 1, 2999, 1}}));
}

}  // namespace
}  // namespace microbrowse
