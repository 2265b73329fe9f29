// Copyright 2026 The Microbrowse Authors
//
// KeyTable against std::unordered_map: seeded insert / find / iterate
// sequences through several growths, under a real hash and under caller-
// supplied hashes that collide (same home slot, same tag, different
// bytes), with the empty key and keys sharing 300-byte prefixes; plus
// copy, move, Reserve and Clear.

#include "common/key_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace microbrowse {
namespace {

using HashFn = std::function<uint64_t(std::string_view)>;

uint64_t RealHash(std::string_view key) { return Mix64(Fnv1a64Wide(key)); }

/// Every key on one home slot with one tag: each probe walks the whole
/// cluster and compares bytes.
uint64_t OneSlotHash(std::string_view) { return 0x9e3779b900000005ULL; }

/// Four tags and four home slots: collisions of either part alone, and of
/// both, at every table size.
uint64_t FewHashes(std::string_view key) {
  const uint64_t h = RealHash(key);
  return ((h >> 62) << 32) | (h & 3);
}

/// The reference: insertion-ordered keys and values, and each key's index.
struct Model {
  std::unordered_map<std::string, size_t> index;
  std::vector<std::string> keys;
  std::vector<int64_t> values;

  size_t Find(const std::string& key) const {
    const auto it = index.find(key);
    return it != index.end() ? it->second : KeyTable<int64_t>::kNotFound;
  }
  size_t Append(const std::string& key, int64_t value) {
    index.emplace(key, keys.size());
    keys.push_back(key);
    values.push_back(value);
    return keys.size() - 1;
  }
};

/// Keys from a four-letter alphabet: short ones that repeat often, the
/// empty key, and long ones sharing a 300-byte prefix that differ only in
/// their last bytes.
std::string RandomKey(Rng* rng) {
  const int kind = static_cast<int>(rng->NextIndex(10));
  if (kind == 0) return "";
  std::string key;
  if (kind <= 2) key.assign(300, 'p');
  const int len = static_cast<int>(rng->NextIndex(kind <= 2 ? 4 : 7));
  for (int i = 0; i < len; ++i) key.push_back("abc "[rng->NextIndex(4)]);
  return key;
}

void ExpectSame(const KeyTable<int64_t>& table, const Model& model, const HashFn& hash) {
  ASSERT_EQ(table.size(), model.keys.size());
  ASSERT_EQ(table.empty(), model.keys.empty());
  ASSERT_EQ(table.values().size(), model.values.size());
  size_t i = 0;
  for (const auto& [key, value] : table) {
    ASSERT_LT(i, model.keys.size());
    EXPECT_EQ(key, model.keys[i]) << i;
    EXPECT_EQ(value, model.values[i]) << i;
    EXPECT_EQ(table.key(i), model.keys[i]) << i;
    EXPECT_EQ(table.hash(i), hash(model.keys[i])) << i;
    EXPECT_EQ(table.values()[i], model.values[i]) << i;
    EXPECT_EQ(table.Find(model.keys[i], hash(model.keys[i])), i) << "'" << model.keys[i] << "'";
    ++i;
  }
  EXPECT_EQ(i, model.keys.size());
}

/// Runs `ops` random operations on a table and the model under `hash`,
/// checking every answer and, every `check_every` operations, the whole
/// table.
void RunDifferential(const HashFn& hash, uint64_t seed, int ops, int check_every) {
  Rng rng(seed);
  KeyTable<int64_t> table;
  Model model;
  for (int op = 0; op < ops; ++op) {
    const std::string key = RandomKey(&rng);
    const uint64_t h = hash(key);
    const size_t want = model.Find(key);
    const int64_t value = static_cast<int64_t>(rng.NextIndex(1000));
    switch (rng.NextIndex(4)) {
      case 0: {  // Insert.
        const auto [index, inserted] = table.Insert(key, h, value);
        EXPECT_EQ(inserted, want == KeyTable<int64_t>::kNotFound) << "'" << key << "'";
        EXPECT_EQ(index, inserted ? model.Append(key, value) : want) << "'" << key << "'";
        break;
      }
      case 1:  // InsertNew of an absent key, else an update through value().
        if (want == KeyTable<int64_t>::kNotFound) {
          EXPECT_EQ(table.InsertNew(key, h, value), model.Append(key, value));
        } else {
          table.value(want) += value;
          model.values[want] += value;
        }
        break;
      default:  // Find, present or absent.
        EXPECT_EQ(table.Find(key, h), want) << "'" << key << "'";
        break;
    }
    if ((op + 1) % check_every == 0) ExpectSame(table, model, hash);
  }
  ExpectSame(table, model, hash);
  // Enough distinct keys that the table grew several times from 16 slots.
  EXPECT_GT(model.keys.size(), 200u);
}

TEST(KeyTableTest, MatchesUnorderedMapUnderARealHash) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    RunDifferential(RealHash, seed, 20000, 997);
  }
}

TEST(KeyTableTest, MatchesUnorderedMapWhenEveryKeySharesHomeSlotAndTag) {
  RunDifferential(OneSlotHash, 4, 1500, 97);
}

TEST(KeyTableTest, MatchesUnorderedMapUnderFewDistinctHashes) {
  RunDifferential(FewHashes, 5, 6000, 499);
}

TEST(KeyTableTest, EmptyKeyIsAKeyLikeAnyOther) {
  KeyTable<int64_t> table;
  EXPECT_EQ(table.Find("", RealHash("")), KeyTable<int64_t>::kNotFound);
  EXPECT_EQ(table.Insert("", RealHash(""), 7), std::make_pair(size_t{0}, true));
  EXPECT_EQ(table.Insert("a", RealHash("a"), 8), std::make_pair(size_t{1}, true));
  EXPECT_EQ(table.Insert("", RealHash(""), 9), std::make_pair(size_t{0}, false));
  EXPECT_EQ(table.Find("", RealHash("")), 0u);
  EXPECT_EQ(table.key(0), "");
  EXPECT_EQ(table.value(0), 7);
  // Under one shared hash the empty key still differs from every other.
  KeyTable<int64_t> colliding;
  colliding.Insert("x", OneSlotHash("x"));
  EXPECT_EQ(colliding.Find("", OneSlotHash("")), KeyTable<int64_t>::kNotFound);
  EXPECT_EQ(colliding.Insert("", OneSlotHash("")).first, 1u);
  EXPECT_EQ(colliding.Find("", OneSlotHash("")), 1u);
}

TEST(KeyTableTest, LongKeysSharingAPrefixDifferInTheirLastByte) {
  const std::string prefix(300, 'q');
  KeyTable<int64_t> table;
  for (int i = 0; i < 64; ++i) {
    const std::string key = prefix + static_cast<char>('0' + i);
    EXPECT_EQ(table.Insert(key, OneSlotHash(key), i).first, static_cast<size_t>(i));
  }
  EXPECT_EQ(table.Find(prefix, OneSlotHash(prefix)), KeyTable<int64_t>::kNotFound);
  for (int i = 0; i < 64; ++i) {
    const std::string key = prefix + static_cast<char>('0' + i);
    EXPECT_EQ(table.Find(key, OneSlotHash(key)), static_cast<size_t>(i));
    EXPECT_EQ(table.key(static_cast<size_t>(i)), key);
  }
}

TEST(KeyTableTest, CopiesAndMovesAreIndependentAndComplete) {
  Rng rng(6);
  KeyTable<int64_t> table;
  Model model;
  while (model.keys.size() < 500) {
    const std::string key = RandomKey(&rng);
    if (model.Find(key) != KeyTable<int64_t>::kNotFound) continue;
    table.InsertNew(key, RealHash(key), static_cast<int64_t>(model.keys.size()));
    model.Append(key, static_cast<int64_t>(model.keys.size()));
  }

  KeyTable<int64_t> copy = table;
  ExpectSame(copy, model, RealHash);
  // A copy owns its slots, entries and bytes: growing and changing it
  // leaves the original as it was.
  Model grown = model;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "copy-only " + std::to_string(i);
    copy.Insert(key, RealHash(key), -1);
    grown.Append(key, -1);
  }
  copy.value(0) = 12345;
  grown.values[0] = 12345;
  ExpectSame(copy, grown, RealHash);
  ExpectSame(table, model, RealHash);

  KeyTable<int64_t> moved(std::move(copy));
  ExpectSame(moved, grown, RealHash);
  KeyTable<int64_t> assigned;
  assigned.Insert("stale", RealHash("stale"));
  assigned = std::move(moved);
  ExpectSame(assigned, grown, RealHash);
  EXPECT_EQ(assigned.Find("stale", RealHash("stale")), KeyTable<int64_t>::kNotFound);
  KeyTable<int64_t> copy_assigned;
  copy_assigned = table;
  ExpectSame(copy_assigned, model, RealHash);
}

TEST(KeyTableTest, ReserveAndClearKeepTheTableUsable) {
  KeyTable<int64_t> table;
  Model model;
  table.Reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(i);
    table.InsertNew(key, RealHash(key), i);
    model.Append(key, i);
  }
  table.Reserve(10);  // Never shrinks.
  ExpectSame(table, model, RealHash);
  table.Clear();
  ExpectSame(table, Model{}, RealHash);
  EXPECT_EQ(table.Find("k1", RealHash("k1")), KeyTable<int64_t>::kNotFound);
  EXPECT_EQ(table.Insert("k1", RealHash("k1"), 3), std::make_pair(size_t{0}, true));
  EXPECT_EQ(table.Find("k1", RealHash("k1")), 0u);
}

}  // namespace
}  // namespace microbrowse
