// Copyright 2026 The Microbrowse Authors
//
// A blocked Bloom filter over 64-bit hashes. Each key lives in one 64-byte
// block (one cache line), so a probe costs a single memory access; inside
// the block the key sets one bit in each of the eight 64-bit words (the
// split-block layout of Parquet's Bloom filter), so a probe is eight
// independent bit tests. There are no false negatives. At 16 bits per key
// the false-positive rate is a fraction of a percent.
//
// Inserted hashes must already be well mixed: the upper 32 bits pick the
// block and the lower 32 bits pick the bits inside it.

#ifndef MICROBROWSE_COMMON_BLOOM_FILTER_H_
#define MICROBROWSE_COMMON_BLOOM_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace microbrowse {

class BlockedBloomFilter {
 public:
  static constexpr size_t kBitsPerKey = 16;

  /// Sized for `expected_keys` at kBitsPerKey; always at least one block,
  /// so an empty filter answers "absent" for every hash.
  explicit BlockedBloomFilter(size_t expected_keys)
      : blocks_(std::max<size_t>(1, (expected_keys * kBitsPerKey + kBlockBits - 1) /
                                        kBlockBits)) {}

  void Insert(uint64_t hash) {
    Block& block = blocks_[BlockIndex(hash)];
    for (int i = 0; i < kWords; ++i) block.words[i] |= WordBit(hash, i);
  }

  /// False only when `hash` was never inserted.
  bool MayContain(uint64_t hash) const {
    const Block& block = blocks_[BlockIndex(hash)];
    uint64_t missing = 0;
    for (int i = 0; i < kWords; ++i) missing |= WordBit(hash, i) & ~block.words[i];
    return missing == 0;
  }

  size_t bytes() const { return blocks_.size() * sizeof(Block); }

 private:
  static constexpr int kWords = 8;
  static constexpr size_t kBlockBits = kWords * 64;
  struct alignas(64) Block {
    uint64_t words[kWords] = {};
  };

  /// Multiply-shift range reduction of the upper 32 bits onto the blocks.
  size_t BlockIndex(uint64_t hash) const {
    return static_cast<size_t>(((hash >> 32) * static_cast<uint64_t>(blocks_.size())) >> 32);
  }

  /// The bit key `hash` owns in word `i`: the top 6 bits of the lower 32
  /// bits times an odd per-word salt.
  static uint64_t WordBit(uint64_t hash, int i) {
    static constexpr uint32_t kSalt[kWords] = {0x47b6137bU, 0x44974d91U, 0x8824ad5bU,
                                               0xa2b7289dU, 0x705495c7U, 0x2df1424bU,
                                               0x9efc4947U, 0x5c6bfb31U};
    return uint64_t{1} << ((static_cast<uint32_t>(hash) * kSalt[i]) >> 26);
  }

  std::vector<Block> blocks_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_BLOOM_FILTER_H_
