// Copyright 2026 The Microbrowse Authors
//
// The stored hash index of an mbpack string table: an open-addressing
// table of 4-byte slots, written next to the table by the artifact writer
// and probed in place from the mapping, so loading a pack hashes nothing.
//
//   slot       = 0 (empty) or (tag << index_bits) | (index + 1)
//   index_bits = bit_width(key count) — just enough to hold index + 1
//   tag        = the hash's high 32 bits, above index_bits
//   home slot  = hash & (slot count - 1); linear probing from there
//   slot count = the smallest power of two holding the keys at a load of at
//                most 0.7, so every table has an empty slot that ends each
//                probe
//   hash       = Mix64(Fnv1a64Wide(key)) (IndexHash), fixed by the format
//
// A probe compares key bytes only when a slot's tag matches, so an absent
// key rarely reads the string table. Open() validates the slots in one
// sequential pass: a power-of-two count, every index in range and present
// exactly once, and at least one empty slot. That makes every later probe
// bounded and in bounds whatever the slot bytes hold; that each key sits
// where its hash leads is the file checksum's to guarantee (a misplaced
// key reads as absent, never as another key).

#ifndef MICROBROWSE_PACK_HASH_INDEX_H_
#define MICROBROWSE_PACK_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "pack/pack_reader.h"

namespace microbrowse {
namespace pack {

/// The index hash of `key`; part of the format (changing it is a version
/// bump).
inline uint64_t IndexHash(std::string_view key) { return Mix64(Fnv1a64Wide(key)); }

/// A key and its IndexHash, computed at the key's first probe and then
/// kept: a caller probing several tables with one key (a registry's pack
/// index and heap KeyTable, then the statistics database's) hashes it
/// once. The text is borrowed.
class HashedKey {
 public:
  explicit HashedKey(std::string_view text) : text_(text) {}

  std::string_view text() const { return text_; }

  uint64_t hash() const {
    if (!hashed_) {
      hash_ = IndexHash(text_);
      hashed_ = true;
    }
    return hash_;
  }

 private:
  std::string_view text_;
  mutable uint64_t hash_ = 0;
  mutable bool hashed_ = false;
};

/// Read-only hash index over one StringTable.
class HashIndex {
 public:
  /// Find's answer for an absent key.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// An index of no slots: every Find misses.
  HashIndex() = default;

  /// Writer side: the slots indexing `keys` (keys[i] -> index i), in the
  /// layout above. InvalidArgument when a key repeats or there are too many
  /// keys for 4-byte slots.
  static Result<std::vector<uint32_t>> Build(const std::vector<std::string_view>& keys);

  /// Reader side: validates `slot_count` slots indexing `key_count` keys
  /// (see the header comment). IOError naming the first fault. The slots
  /// are borrowed, not copied.
  static Result<HashIndex> Open(const uint32_t* slots, size_t slot_count, size_t key_count);

  /// Index of `key` in `keys` (the table this index was built over), or
  /// kNotFound.
  size_t Find(const StringTable& keys, const HashedKey& key) const {
    if (slots_ == nullptr) return kNotFound;
    const uint64_t hash = key.hash();
    const uint32_t tag = static_cast<uint32_t>(hash >> 32) & ~index_mask_;
    for (size_t slot = static_cast<size_t>(hash) & slot_mask_;;
         slot = (slot + 1) & slot_mask_) {
      const uint32_t value = slots_[slot];
      if (value == 0) return kNotFound;
      if ((value & ~index_mask_) == tag) {
        const size_t index = (value & index_mask_) - 1;
        if (keys.at(index) == key.text()) return index;
      }
    }
  }
  size_t Find(const StringTable& keys, std::string_view key) const {
    return Find(keys, HashedKey(key));
  }

 private:
  const uint32_t* slots_ = nullptr;
  size_t slot_mask_ = 0;     ///< slot_count - 1.
  uint32_t index_mask_ = 0;  ///< The low index_bits bits.
};

}  // namespace pack
}  // namespace microbrowse

#endif  // MICROBROWSE_PACK_HASH_INDEX_H_
