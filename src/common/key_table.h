// Copyright 2026 The Microbrowse Authors
//
// A flat open-addressing map from string keys to values: the heap layer
// of the feature registries and the statistics database. Its slots follow
// the stored hash index of an mbpack string table (pack/hash_index.h):
//
//   slot       = {tag, entry + 1}; entry + 1 = 0 marks an empty slot
//   tag        = the hash's high 32 bits
//   home slot  = hash & (slot count - 1); linear probing from there
//   slot count = a power of two, at most 70% full, so every probe meets an
//                empty slot
//   entries    = {hash, key offset, key size} in insertion order, with the
//                values in a parallel array and every key's bytes in one
//                arena
//
// The caller supplies each key's hash. The feature layers pass
// pack::IndexHash, so one pack::HashedKey serves the heap and pack layers
// of a registry and of a statistics database alike. A probe compares key
// bytes only when a slot's tag matches; growth doubles the slots and
// re-places every entry from its stored hash, reading no key bytes. A new
// key costs its bytes in the arena, one 16-byte entry and one value, and
// no allocation of its own.
//
// Iteration is in insertion order, so an entry's index is stable: the
// feature registry uses it as the feature id. Keys and values are views
// into vectors, so a view taken before an insertion may dangle after it.

#ifndef MICROBROWSE_COMMON_KEY_TABLE_H_
#define MICROBROWSE_COMMON_KEY_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace microbrowse {

template <typename V>
class KeyTable {
 public:
  /// Find's answer for an absent key.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entry index of `key`, hashed `hash`, or kNotFound.
  size_t Find(std::string_view key, uint64_t hash) const {
    if (slots_.empty()) return kNotFound;
    const Slot slot = slots_[Probe(key, hash)];
    return slot.entry != 0 ? slot.entry - 1 : kNotFound;
  }

  /// Entry index of `key`, appending it with `value` when absent; the bool
  /// says whether it was appended.
  std::pair<size_t, bool> Insert(std::string_view key, uint64_t hash, const V& value = V()) {
    if (slots_.empty()) return {Append(key, hash, value), true};
    const size_t slot = Probe(key, hash);
    if (slots_[slot].entry != 0) return {slots_[slot].entry - 1, false};
    return {Append(key, hash, value, slot), true};
  }

  /// Appends `key`, which must be absent, and returns its entry index: the
  /// index Insert would return, without comparing any key bytes.
  size_t InsertNew(std::string_view key, uint64_t hash, const V& value) {
    return Append(key, hash, value);
  }

  std::string_view key(size_t i) const {
    return std::string_view(bytes_.data() + entries_[i].offset, entries_[i].size);
  }
  uint64_t hash(size_t i) const { return entries_[i].hash; }
  const V& value(size_t i) const { return values_[i]; }
  V& value(size_t i) { return values_[i]; }
  /// Every value, by entry index.
  std::span<const V> values() const { return values_; }

  /// Makes room for `n` entries without further growth.
  void Reserve(size_t n) {
    entries_.reserve(n);
    values_.reserve(n);
    if (SlotsFor(n) > slots_.size()) Rehash(SlotsFor(n));
  }

  /// Forgets every entry (capacity is kept).
  void Clear() {
    slots_.assign(slots_.size(), Slot{});
    entries_.clear();
    values_.clear();
    bytes_.clear();
  }

  /// (key, value) views in insertion order, for range-for loops.
  class const_iterator {
   public:
    const_iterator(const KeyTable* table, size_t i) : table_(table), i_(i) {}
    std::pair<std::string_view, const V&> operator*() const {
      return {table_->key(i_), table_->value(i_)};
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& other) const { return i_ == other.i_; }

   private:
    const KeyTable* table_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t entry = 0;  ///< Entry index + 1; 0 = empty.
  };
  struct Entry {
    uint64_t hash;
    uint32_t offset;  ///< Into bytes_.
    uint32_t size;
  };

  static uint32_t Tag(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

  /// The slot holding `key`, or the empty slot where it would go. The
  /// slots must not be empty.
  size_t Probe(std::string_view key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = Tag(hash);
    size_t slot = static_cast<size_t>(hash) & mask;
    for (;; slot = (slot + 1) & mask) {
      const Slot& probe = slots_[slot];
      if (probe.entry == 0 || (probe.tag == tag && this->key(probe.entry - 1) == key)) {
        return slot;
      }
    }
  }

  /// The first empty slot on `hash`'s probe sequence.
  size_t EmptySlot(uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = static_cast<size_t>(hash) & mask;
    while (slots_[slot].entry != 0) slot = (slot + 1) & mask;
    return slot;
  }

  /// The slot count holding `n` entries at a load of at most 0.7.
  static size_t SlotsFor(size_t n) {
    size_t slots = 16;
    while (slots * 7 < n * 10) slots *= 2;
    return slots;
  }

  void Rehash(size_t slot_count) {
    slots_.assign(slot_count, Slot{});
    for (size_t i = 0; i < entries_.size(); ++i) {
      const uint64_t hash = entries_[i].hash;
      slots_[EmptySlot(hash)] = Slot{Tag(hash), static_cast<uint32_t>(i + 1)};
    }
  }

  /// Appends the absent `key` at `slot`, the empty slot Probe found, or at
  /// the empty slot its hash leads to when `slot` is kNotFound or the table
  /// grows.
  size_t Append(std::string_view key, uint64_t hash, const V& value, size_t slot = kNotFound) {
    constexpr size_t kMax = std::numeric_limits<uint32_t>::max() - 1;
    if (entries_.size() >= kMax || key.size() > kMax - bytes_.size()) {
      throw std::length_error("KeyTable: over 2^32 entries or key bytes");
    }
    if ((entries_.size() + 1) * 10 > slots_.size() * 7) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
      slot = kNotFound;
    }
    if (slot == kNotFound) slot = EmptySlot(hash);
    const size_t index = entries_.size();
    slots_[slot] = Slot{Tag(hash), static_cast<uint32_t>(index + 1)};
    entries_.push_back(
        Entry{hash, static_cast<uint32_t>(bytes_.size()), static_cast<uint32_t>(key.size())});
    values_.push_back(value);
    bytes_.insert(bytes_.end(), key.begin(), key.end());
    return index;
  }

  std::vector<Slot> slots_;  ///< Empty until the first insertion.
  std::vector<Entry> entries_;
  std::vector<V> values_;
  std::vector<char> bytes_;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_KEY_TABLE_H_
