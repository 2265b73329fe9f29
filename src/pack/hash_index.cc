// Copyright 2026 The Microbrowse Authors

#include "pack/hash_index.h"

#include <algorithm>
#include <bit>
#include <string>

namespace microbrowse {
namespace pack {

namespace {

/// Most keys one index holds: index + 1 and at least two tag bits fit in
/// a slot, and the slot array stays far below 4 GiB.
constexpr size_t kMaxKeys = size_t{1} << 29;

uint32_t IndexMask(size_t key_count) {
  const int index_bits = std::bit_width(static_cast<uint64_t>(key_count));
  return index_bits >= 32 ? ~uint32_t{0} : (uint32_t{1} << index_bits) - 1;
}

Status BadIndex(const std::string& why) { return Status::IOError("hash index: " + why); }

/// The first fault of slots that failed the fast check in Open, found by
/// the plain slot-by-slot reading of the rules.
Status DescribeFault(const uint32_t* slots, size_t slot_count, size_t key_count,
                     uint32_t index_mask) {
  std::vector<bool> seen(key_count, false);
  size_t occupied = 0;
  for (size_t slot = 0; slot < slot_count; ++slot) {
    if (slots[slot] == 0) continue;
    const size_t field = slots[slot] & index_mask;
    if (field == 0 || field > key_count) {
      return BadIndex("slot " + std::to_string(slot) + " holds an index out of range");
    }
    if (seen[field - 1]) {
      return BadIndex("index " + std::to_string(field - 1) + " appears in two slots");
    }
    seen[field - 1] = true;
    ++occupied;
  }
  if (occupied == slot_count) return BadIndex("no empty slot");
  return BadIndex("indexes " + std::to_string(occupied) + " of " + std::to_string(key_count) +
                  " keys");
}

}  // namespace

Result<std::vector<uint32_t>> HashIndex::Build(const std::vector<std::string_view>& keys) {
  const size_t count = keys.size();
  if (count > kMaxKeys) {
    return Status::InvalidArgument("HashIndex: " + std::to_string(count) +
                                   " keys exceed the 4-byte slot layout");
  }
  // The smallest power of two with count / slots <= 0.7.
  const size_t slot_count = std::bit_ceil(std::max<size_t>(1, (count * 10 + 6) / 7));
  const size_t slot_mask = slot_count - 1;
  const uint32_t index_mask = IndexMask(count);
  std::vector<uint32_t> slots(slot_count, 0);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t hash = IndexHash(keys[i]);
    const uint32_t tag = static_cast<uint32_t>(hash >> 32) & ~index_mask;
    size_t slot = static_cast<size_t>(hash) & slot_mask;
    for (; slots[slot] != 0; slot = (slot + 1) & slot_mask) {
      if ((slots[slot] & ~index_mask) == tag &&
          keys[(slots[slot] & index_mask) - 1] == keys[i]) {
        return Status::InvalidArgument("HashIndex: duplicate key \"" + std::string(keys[i]) +
                                       "\"");
      }
    }
    slots[slot] = tag | static_cast<uint32_t>(i + 1);
  }
  return slots;
}

Result<HashIndex> HashIndex::Open(const uint32_t* slots, size_t slot_count, size_t key_count) {
  if (!std::has_single_bit(slot_count)) {
    return BadIndex("slot count " + std::to_string(slot_count) + " is not a power of two");
  }
  const uint32_t index_mask = IndexMask(key_count);
  // One pass with no data-dependent branch: about half the slots are empty,
  // in no pattern, and a branch per slot mispredicts (a branchy pass took
  // about four times as long over an 18k-key registry). marked[f] records
  // index field f; empty slots (field 0) and fields past key_count land on
  // the two guard bytes. When as many slots are occupied as there are keys
  // and every index 1..key_count is marked, no slot can hold an index out
  // of range or one that another slot holds.
  std::vector<uint8_t> marked(key_count + 2, 0);
  size_t occupied = 0;
  for (size_t slot = 0; slot < slot_count; ++slot) {
    occupied += slots[slot] != 0;
    marked[std::min<size_t>(slots[slot] & index_mask, key_count + 1)] = 1;
  }
  const auto distinct = std::count(marked.begin() + 1, marked.end() - 1, uint8_t{1});
  if (occupied != key_count || static_cast<size_t>(distinct) != key_count ||
      occupied == slot_count) {
    return DescribeFault(slots, slot_count, key_count, index_mask);
  }
  HashIndex index;
  index.slots_ = slots;
  index.slot_mask_ = slot_count - 1;
  index.index_mask_ = index_mask;
  return index;
}

}  // namespace pack
}  // namespace microbrowse
