// Copyright 2026 The Microbrowse Authors
//
// Differential test wall for the statistics build: BuildFeatureStats must
// produce exactly the (key, positive, total) set of the serial all-keys
// reference (stats_reference.h), for one and four threads and several
// seeded corpora. The first production pass keeps only rewrite keys, so a
// pass that lost or miscounted one shows up as a different final database.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "microbrowse/stats_db.h"
#include "stats_reference.h"

namespace microbrowse {
namespace {

using StatSet = std::map<std::string, std::pair<int64_t, int64_t>, std::less<>>;

/// Every (key, positive, total) of `db`.
StatSet Entries(const FeatureStatsDb& db) {
  StatSet out;
  db.ForEach([&out](std::string_view key, const FeatureStat& stat) {
    out.emplace(std::string(key), std::make_pair(stat.positive, stat.total));
  });
  return out;
}

/// Readable first difference of two stat sets; empty when equal.
std::string FirstDifference(const StatSet& want, const StatSet& got) {
  for (const auto& [key, counts] : want) {
    auto it = got.find(key);
    if (it == got.end()) return "missing key '" + key + "'";
    if (it->second != counts) {
      return "key '" + key + "': want " + std::to_string(counts.first) + "/" +
             std::to_string(counts.second) + ", got " + std::to_string(it->second.first) +
             "/" + std::to_string(it->second.second);
    }
  }
  for (const auto& entry : got) {
    if (want.count(entry.first) == 0) return "extra key '" + entry.first + "'";
  }
  return "";
}

/// Adgroups per corpus: enough pairs (~900) that four threads split the
/// build over the chunk grid rather than falling back to one thread.
constexpr int kAdgroups = 300;

AdCorpus Corpus(uint64_t seed) {
  AdCorpusOptions options;
  options.num_adgroups = kAdgroups;
  options.seed = seed;
  auto generated = GenerateAdCorpus(options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return generated.ok() ? generated->corpus : AdCorpus{};
}

/// The reference's entries for `seed`, computed once per process.
const StatSet& ReferenceEntries(uint64_t seed) {
  static std::map<uint64_t, StatSet> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    const PairCorpus pairs = ExtractSignificantPairs(Corpus(seed), {});
    it = cache.emplace(seed, Entries(ReferenceBuildFeatureStats(pairs))).first;
  }
  return it->second;
}

class StatsReferenceTest : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(StatsReferenceTest, BuildMatchesReference) {
  const auto [seed, threads] = GetParam();
  const PairCorpus pairs = ExtractSignificantPairs(Corpus(seed), {});
  ASSERT_GE(pairs.pairs.size(), 256u) << "too few pairs to exercise the threaded build";
  BuildStatsOptions options;
  options.num_threads = threads;
  const FeatureStatsDb db = BuildFeatureStats(pairs, options);
  const StatSet& want = ReferenceEntries(seed);
  const StatSet got = Entries(db);
  EXPECT_EQ(FirstDifference(want, got), "");
  EXPECT_TRUE(want == got);
  EXPECT_EQ(db.smoothing(), kStatsSmoothing);
  EXPECT_EQ(db.min_count(), options.min_count);
}

std::string ParamName(const ::testing::TestParamInfo<std::tuple<uint64_t, int>>& info) {
  return "seed" + std::to_string(std::get<0>(info.param)) + "_threads" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(SeedsAndThreads, StatsReferenceTest,
                         ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{23}),
                                            ::testing::Values(1, 4)),
                         ParamName);

/// Pairs over tokens holding bytes 0x01-0x1f, which sort below the space
/// that joins a phrase's tokens ("a b" > "a\x01" as texts, although
/// "a" < "a\x01"), with random serve weights.
PairCorpus LowBytePairCorpus() {
  static const char* const kVocabulary[] = {"a", "b", "a\x01", "\x01", "a\x1f", "\x1f"};
  Rng rng(2027);
  const auto token = [&] { return std::string(kVocabulary[rng.NextIndex(6)]); };
  PairCorpus corpus;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::vector<std::string>> r_lines(1 + rng.NextIndex(3));
    for (auto& line : r_lines) {
      line.resize(2 + rng.NextIndex(6));
      for (std::string& t : line) t = token();
    }
    std::vector<std::vector<std::string>> s_lines = r_lines;
    for (auto& line : s_lines) {
      for (std::string& t : line) {
        if (rng.NextIndex(3) == 0) t = token();
      }
    }
    SnippetPair pair;
    pair.r.snippet = Snippet::FromTokens(r_lines);
    pair.s.snippet = Snippet::FromTokens(s_lines);
    pair.r.serve_weight = rng.NextIndex(2) == 0 ? 0.5 : 1.5;
    corpus.pairs.push_back(std::move(pair));
  }
  return corpus;
}

TEST(StatsReferenceLowByteTest, LowByteTokensBuildTheReferenceDatabase) {
  // Every rw: key and its sign come from comparing the spelled texts, and
  // the second pass matches against those keys, so a key spelled in token
  // order shows up as a missing or extra key.
  const PairCorpus pairs = LowBytePairCorpus();
  BuildStatsOptions options;
  options.min_count = 0;
  const StatSet want = Entries(ReferenceBuildFeatureStats(pairs, options));
  const StatSet got = Entries(BuildFeatureStats(pairs, options));
  EXPECT_EQ(FirstDifference(want, got), "");
  EXPECT_TRUE(want == got);
  EXPECT_GT(std::count_if(want.begin(), want.end(),
                          [](const auto& entry) { return entry.first.rfind("rw:", 0) == 0; }),
            10);
}

}  // namespace
}  // namespace microbrowse
