// Copyright 2026 The Microbrowse Authors

#include "text/diff.h"

#include <algorithm>

namespace microbrowse {

namespace {

/// Fills the (n+1) x (m+1) LCS length table for suffixes, row-major in
/// `table`; cell (i, j) holds the LCS length of a[i:] and b[j:].
template <typename Token>
void FillLcsSuffixTable(std::span<const Token> a, std::span<const Token> b,
                        std::vector<int>* table) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t stride = m + 1;
  table->assign((n + 1) * stride, 0);
  int* cell = table->data();
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      cell[i * stride + j] = a[i] == b[j] ? cell[(i + 1) * stride + j + 1] + 1
                                          : std::max(cell[(i + 1) * stride + j],
                                                     cell[i * stride + j + 1]);
    }
  }
}

/// The one LCS diff, over tokens or over token ids.
template <typename Token>
void AppendDiff(std::span<const Token> a, std::span<const Token> b, std::vector<int>* table,
                std::vector<DiffHunk>* hunks, std::vector<TokenMatch>* matches) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  // The walk below matches equal tokens before it consults the table, so
  // it crosses the common prefix without reading it: the table need only
  // cover the suffixes after it, whose LCS lengths the prefix does not
  // change. (Trimming the common suffix too would change the tie-break.)
  const size_t prefix = static_cast<size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
  FillLcsSuffixTable(a.subspan(prefix), b.subspan(prefix), table);
  const size_t stride = b.size() - prefix + 1;
  const auto lcs = [&](int i, int j) {
    return (*table)[(static_cast<size_t>(i) - prefix) * stride + (static_cast<size_t>(j) - prefix)];
  };

  int i = 0;
  int j = 0;
  int hunk_a_start = -1;
  int hunk_b_start = -1;

  auto open_hunk = [&](int ai, int bj) {
    if (hunk_a_start < 0) {
      hunk_a_start = ai;
      hunk_b_start = bj;
    }
  };
  auto close_hunk = [&](int ai, int bj) {
    if (hunk_a_start >= 0) {
      hunks->push_back(DiffHunk{hunk_a_start, ai - hunk_a_start, hunk_b_start, bj - hunk_b_start});
      hunk_a_start = -1;
      hunk_b_start = -1;
    }
  };

  while (i < n && j < m) {
    if (a[i] == b[j]) {
      close_hunk(i, j);
      if (matches != nullptr) matches->push_back(TokenMatch{i, j});
      ++i;
      ++j;
    } else if (lcs(i + 1, j) >= lcs(i, j + 1)) {
      open_hunk(i, j);
      ++i;  // a[i] deleted.
    } else {
      open_hunk(i, j);
      ++j;  // b[j] inserted.
    }
  }
  if (i < n || j < m) {
    open_hunk(i, j);
    i = n;
    j = m;
  }
  close_hunk(i, j);
}

}  // namespace

int LcsLength(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0;
  std::vector<int> table;
  FillLcsSuffixTable<std::string>(a, b, &table);
  return table[0];
}

std::vector<DiffHunk> TokenDiff(const std::vector<std::string>& a,
                                const std::vector<std::string>& b,
                                std::vector<TokenMatch>* matches) {
  std::vector<int> table;
  std::vector<DiffHunk> hunks;
  AppendDiff<std::string>(a, b, &table, &hunks, matches);
  return hunks;
}

void AppendTokenDiff(std::span<const TokenId> a, std::span<const TokenId> b,
                     std::vector<int>* table, std::vector<DiffHunk>* hunks,
                     std::vector<TokenMatch>* matches) {
  AppendDiff(a, b, table, hunks, matches);
}

}  // namespace microbrowse
