// Copyright 2026 The Microbrowse Authors
//
// Blocked Bloom filter tests: no false negatives, a false-positive rate
// that matches the sizing, and an empty filter that rules out everything.

#include "common/bloom_filter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace microbrowse {
namespace {

TEST(BlockedBloomFilterTest, EveryInsertedHashIsFound) {
  Rng rng(7);
  std::vector<uint64_t> inserted(20000);
  for (uint64_t& hash : inserted) hash = rng.NextU64();
  BlockedBloomFilter filter(inserted.size());
  for (uint64_t hash : inserted) filter.Insert(hash);
  for (uint64_t hash : inserted) ASSERT_TRUE(filter.MayContain(hash)) << hash;
}

TEST(BlockedBloomFilterTest, FalsePositiveRateFitsSixteenBitsPerKey) {
  constexpr size_t kKeys = 32768;
  BlockedBloomFilter filter(kKeys);
  EXPECT_EQ(filter.bytes(), kKeys * BlockedBloomFilter::kBitsPerKey / 8);
  // Sequential keys through the hash mixer, as the stats database feeds it.
  for (uint64_t i = 0; i < kKeys; ++i) filter.Insert(Mix64(i));
  size_t false_positives = 0;
  constexpr uint64_t kProbes = 200000;
  for (uint64_t i = 0; i < kProbes; ++i) false_positives += filter.MayContain(Mix64(kKeys + i));
  const double rate = static_cast<double>(false_positives) / kProbes;
  RecordProperty("false_positive_rate", std::to_string(rate));
  EXPECT_LT(rate, 0.01);
}

TEST(BlockedBloomFilterTest, EmptyFilterRulesOutEverything) {
  BlockedBloomFilter filter(0);
  EXPECT_EQ(filter.bytes(), 64u);  // One block.
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) ASSERT_FALSE(filter.MayContain(rng.NextU64()));
}

}  // namespace
}  // namespace microbrowse
