// Copyright 2026 The Microbrowse Authors
//
// mbpack container tests: write/read round trips through PackWriter and
// PackReader, the zero-copy section views (Array<T>, StringTable), and the
// open-time validation ladder — every corruption a pack can arrive with
// (bad magic, wrong version, flipped bytes, truncation, duplicate or
// out-of-bounds sections) must be rejected before any payload byte is
// interpreted.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "pack/format.h"
#include "pack/hash_index.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"

namespace microbrowse {
namespace pack {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/pack_test_" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

/// A small two-section pack: doubles in section 7, strings in 8/9.
std::string WriteSamplePack(const std::string& name) {
  const std::string path = TestPath(name);
  PackWriter writer;

  SectionBuilder weights;
  weights.AppendArray(std::vector<double>{0.5, -1.25, 3.0});
  writer.AddSection(7, std::move(weights).Take());

  const std::vector<std::string> keys = {"alpha", "beta", "gamma"};
  SectionBuilder offsets;
  SectionBuilder bytes;
  uint64_t cursor = 0;
  offsets.AppendPod(cursor);
  for (const std::string& key : keys) {
    bytes.AppendBytes(key);
    cursor += key.size();
    offsets.AppendPod(cursor);
  }
  writer.AddSection(8, std::move(offsets).Take());
  writer.AddSection(9, std::move(bytes).Take());

  EXPECT_TRUE(writer.Finish(path).ok());
  return path;
}

TEST(PackWriterTest, RoundTripSectionsAndViews) {
  const std::string path = WriteSamplePack("roundtrip.mbp");
  auto reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  EXPECT_EQ((*reader)->sections().size(), 3u);
  EXPECT_TRUE((*reader)->HasSection(7));
  EXPECT_TRUE((*reader)->HasSection(8));
  EXPECT_FALSE((*reader)->HasSection(99));

  size_t count = 0;
  auto weights = (*reader)->Array<double>(7, &count);
  ASSERT_TRUE(weights.ok()) << weights.status().ToString();
  ASSERT_EQ(count, 3u);
  EXPECT_EQ((*weights)[0], 0.5);
  EXPECT_EQ((*weights)[1], -1.25);
  EXPECT_EQ((*weights)[2], 3.0);

  auto strings = (*reader)->Strings(8, 9);
  ASSERT_TRUE(strings.ok()) << strings.status().ToString();
  ASSERT_EQ(strings->size(), 3u);
  EXPECT_EQ(strings->at(0), "alpha");
  EXPECT_EQ(strings->at(2), "gamma");
  EXPECT_EQ(strings->LowerBound("beta"), 1u);
  EXPECT_EQ(strings->LowerBound("delta"), 2u);  // Before "gamma".
  EXPECT_EQ(strings->LowerBound(""), 0u);

  // The views are the mapping itself: payload pointers must lie inside the
  // file and be 8-byte aligned (the reinterpret_cast contract).
  EXPECT_EQ(reinterpret_cast<uintptr_t>(*weights) % kSectionAlignment, 0u);
}

TEST(PackWriterTest, MissingSectionIsAnError) {
  const std::string path = WriteSamplePack("missing.mbp");
  auto reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t count = 0;
  EXPECT_FALSE((*reader)->Array<double>(42, &count).ok());
  EXPECT_FALSE((*reader)->Strings(8, 99).ok());
}

TEST(PackWriterTest, WriterRefusesDuplicateSectionTypes) {
  const std::string path = TestPath("dup.mbp");
  PackWriter writer;
  SectionBuilder a;
  a.AppendPod<uint64_t>(1);
  writer.AddSection(5, std::move(a).Take());
  SectionBuilder b;
  b.AppendPod<uint64_t>(2);
  writer.AddSection(5, std::move(b).Take());
  const Status written = writer.Finish(path);
  ASSERT_FALSE(written.ok());
  EXPECT_NE(written.ToString().find("duplicate"), std::string::npos) << written.ToString();
}

TEST(PackReaderTest, RejectsDuplicateSectionTypes) {
  // The writer refuses duplicates, so forge one: retype the second table
  // entry to collide with the first and re-sign the footer, leaving the
  // file otherwise checksum-valid.
  const std::string good = WriteSamplePack("dup_forged_src.mbp");
  std::string bytes = ReadAll(good);
  SectionEntry entry;
  const size_t second_entry = sizeof(PackHeader) + sizeof(SectionEntry);
  std::memcpy(&entry, bytes.data() + second_entry, sizeof(entry));
  entry.type = 7;  // Collides with the first section.
  std::memcpy(bytes.data() + second_entry, &entry, sizeof(entry));
  PackFooter footer;
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof(footer), sizeof(footer));
  footer.file_checksum = Fnv1a64Wide(
      std::string_view(bytes.data(), bytes.size() - sizeof(footer)));
  std::memcpy(bytes.data() + bytes.size() - sizeof(footer), &footer, sizeof(footer));
  const std::string path = TestPath("dup_forged.mbp");
  WriteAll(path, bytes);

  auto reader = PackReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("duplicate"), std::string::npos)
      << reader.status().ToString();
}

TEST(PackReaderTest, RejectsEmptyAndTinyFiles) {
  const std::string path = TestPath("tiny.mbp");
  WriteAll(path, "");
  EXPECT_FALSE(PackReader::Open(path).ok());
  WriteAll(path, std::string(kMinFileSize - 1, '\0'));
  EXPECT_FALSE(PackReader::Open(path).ok());
  EXPECT_FALSE(PackReader::Open(TestPath("does_not_exist.mbp")).ok());
}

TEST(PackReaderTest, RejectsBadMagic) {
  const std::string good = WriteSamplePack("badmagic_src.mbp");
  std::string bytes = ReadAll(good);
  bytes[0] = 'X';
  const std::string path = TestPath("badmagic.mbp");
  WriteAll(path, bytes);
  auto reader = PackReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("magic"), std::string::npos);
}

TEST(PackReaderTest, RejectsUnsupportedVersion) {
  const std::string good = WriteSamplePack("badver_src.mbp");
  std::string bytes = ReadAll(good);
  // Bump the version field and re-sign the header so only the version is
  // wrong — the reader must still refuse it.
  PackHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = kFormatVersion + 1;
  header.header_checksum = Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(&header), offsetof(PackHeader, header_checksum)));
  std::memcpy(bytes.data(), &header, sizeof(header));
  const std::string path = TestPath("badver.mbp");
  WriteAll(path, bytes);
  auto reader = PackReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
}

TEST(PackReaderTest, RejectsFormatVersionOne) {
  // Format 1 packs have no hash indexes (and a sorted registry permutation
  // in their place); they are refused at open, never half-read.
  ASSERT_EQ(kFormatVersion, 2u);
  std::string bytes = ReadAll(WriteSamplePack("v1_src.mbp"));
  PackHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = 1;
  header.header_checksum = Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(&header), offsetof(PackHeader, header_checksum)));
  std::memcpy(bytes.data(), &header, sizeof(header));
  const std::string path = TestPath("v1.mbp");
  WriteAll(path, bytes);
  auto reader = PackReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_NE(reader.status().message().find("unsupported version 1"), std::string::npos)
      << reader.status().ToString();
}

TEST(PackReaderTest, RejectsEveryPossibleBitFlip) {
  // Exhaustive single-byte corruption: every byte of the file is covered by
  // some checksum (header, per-section or whole-file) or magic/bounds check,
  // so each flip must fail the open. The sample pack is ~200 bytes, so
  // exhaustive is cheap.
  const std::string good = WriteSamplePack("flip_src.mbp");
  const std::string bytes = ReadAll(good);
  const std::string path = TestPath("flip.mbp");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] ^= 0x5a;
    WriteAll(path, damaged);
    EXPECT_FALSE(PackReader::Open(path).ok()) << "byte " << i << " of " << bytes.size();
  }
  // Control: the undamaged bytes still open.
  WriteAll(path, bytes);
  EXPECT_TRUE(PackReader::Open(path).ok());
}

TEST(PackReaderTest, ChecksumAndSizeAreStable) {
  const std::string path = WriteSamplePack("stable.mbp");
  auto first = PackReader::Open(path);
  auto second = PackReader::Open(path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*first)->file_checksum(), (*second)->file_checksum());
  EXPECT_EQ((*first)->file_size(), ReadAll(path).size());
}

TEST(StringTableTest, BinarySearchAgreesWithLinearScan) {
  const std::string path = TestPath("table.mbp");
  PackWriter writer;
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) keys.push_back("k" + std::to_string(1000 + i * 3));
  SectionBuilder offsets;
  SectionBuilder bytes;
  uint64_t cursor = 0;
  offsets.AppendPod(cursor);
  for (const std::string& key : keys) {
    bytes.AppendBytes(key);
    cursor += key.size();
    offsets.AppendPod(cursor);
  }
  writer.AddSection(1, std::move(offsets).Take());
  writer.AddSection(2, std::move(bytes).Take());
  ASSERT_TRUE(writer.Finish(path).ok());

  auto reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto table = (*reader)->Strings(1, 2);
  ASSERT_TRUE(table.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table->LowerBound(keys[i]), i) << keys[i];
    // Just past a key lands on its successor (keys are distinct).
    EXPECT_EQ(table->LowerBound(keys[i] + '\0'), i + 1) << keys[i];
  }
  EXPECT_EQ(table->LowerBound("k0999"), 0u);
  EXPECT_EQ(table->LowerBound("k9999"), keys.size());
  EXPECT_EQ(table->LowerBound("k1000x"), 1u);
}

std::vector<std::string> IndexKeys(size_t n) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back("t:key " + std::to_string(i));
  return keys;
}

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}

/// A StringTable over `keys`, backed by `offsets` and `bytes`.
StringTable TableOf(const std::vector<std::string>& keys, std::vector<uint64_t>* offsets,
                    std::string* bytes) {
  offsets->assign(1, 0);
  for (const std::string& key : keys) {
    bytes->append(key);
    offsets->push_back(bytes->size());
  }
  return StringTable(offsets->data(), keys.size(), bytes->data());
}

TEST(HashIndexTest, IndexHashIsFixedByTheFormat) {
  // Packs on disk depend on these bits; a change is a format version bump.
  EXPECT_EQ(IndexHash("t:cheap flights"), 0xaf7a40270c9354d8ULL);
}

TEST(HashIndexTest, SlotsArePowersOfTwoAtLoadAtMostPointSeven) {
  for (const auto& [keys, slots] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {1, 2}, {2, 4}, {7, 16}, {14, 32}, {700, 1024}, {716, 1024},
           {717, 2048}, {18178, 32768}}) {
    const std::vector<std::string> names = IndexKeys(keys);
    auto built = HashIndex::Build(Views(names));
    ASSERT_TRUE(built.ok()) << keys;
    EXPECT_EQ(built->size(), slots) << keys;
    EXPECT_LE(static_cast<double>(keys), 0.7 * static_cast<double>(built->size())) << keys;
  }
}

TEST(HashIndexTest, FindsEveryKeyAndNoAbsentOne) {
  for (size_t n : {0, 1, 2, 3, 100, 5000}) {
    const std::vector<std::string> keys = IndexKeys(n);
    std::vector<uint64_t> offsets;
    std::string bytes;
    const StringTable table = TableOf(keys, &offsets, &bytes);
    auto slots = HashIndex::Build(Views(keys));
    ASSERT_TRUE(slots.ok());
    auto index = HashIndex::Open(slots->data(), slots->size(), n);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(index->Find(table, keys[i]), i) << keys[i];
    for (const std::string absent : {"", "t:key", "t:key -1", "t:key 5000", "x"}) {
      EXPECT_EQ(index->Find(table, absent), HashIndex::kNotFound) << absent;
    }
  }
  // The default index has no slots and finds nothing.
  EXPECT_EQ(HashIndex().Find(StringTable(), "anything"), HashIndex::kNotFound);
}

TEST(HashIndexTest, BuildRefusesDuplicateKeys) {
  auto slots = HashIndex::Build({"t:a", "t:b", "t:a"});
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(slots.status().message().find("duplicate"), std::string::npos);
}

TEST(HashIndexTest, OpenRejectsMalformedSlots) {
  const std::vector<std::string> keys = IndexKeys(5);
  auto built = HashIndex::Build(Views(keys));
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->size(), 8u);
  const std::vector<uint32_t> good = *built;
  const auto empty = std::find(good.begin(), good.end(), 0u) - good.begin();
  const auto used =
      std::find_if(good.begin(), good.end(), [](uint32_t v) { return v != 0; }) - good.begin();
  auto open_error = [](const std::vector<uint32_t>& slots, size_t keys) {
    auto index = HashIndex::Open(slots.data(), slots.size(), keys);
    EXPECT_FALSE(index.ok());
    EXPECT_EQ(index.status().code(), StatusCode::kIOError);
    return index.status().message();
  };
  std::vector<uint32_t> slots = good;
  slots[empty] = 6;  // Index 5 of 5 keys (3 index bits, no tag).
  EXPECT_NE(open_error(slots, 5).find("out of range"), std::string::npos);
  slots[empty] = 0x80000000u;  // Tag bits only: index -1.
  EXPECT_NE(open_error(slots, 5).find("out of range"), std::string::npos);
  slots = good;
  slots[empty] = good[used];
  EXPECT_NE(open_error(slots, 5).find("appears in two slots"), std::string::npos);
  EXPECT_NE(open_error({1, 2, 3, 4}, 4).find("no empty slot"), std::string::npos);
  slots = good;
  slots.pop_back();
  EXPECT_NE(open_error(slots, 5).find("not a power of two"), std::string::npos);
  EXPECT_NE(open_error({}, 0).find("not a power of two"), std::string::npos);
  // A slot lost: one key is not indexed.
  slots = good;
  slots[used] = 0;
  EXPECT_NE(open_error(slots, 5).find("indexes 4 of 5"), std::string::npos);
  EXPECT_TRUE(HashIndex::Open(good.data(), good.size(), 5).ok());
}

TEST(HashTest, WideFnvDistinguishesTailLengths) {
  // The wide FNV pads the final partial word with zeros; the folded-in byte
  // count is what keeps "abc" and "abc\0" (same padded word) distinct.
  EXPECT_NE(Fnv1a64Wide("abc"), Fnv1a64Wide(std::string_view("abc\0", 4)));
  EXPECT_NE(Fnv1a64Wide(""), Fnv1a64Wide(std::string_view("\0", 1)));
  EXPECT_NE(Fnv1a64Wide("12345678"), Fnv1a64Wide("12345679"));
  EXPECT_EQ(Fnv1a64Wide("12345678"), Fnv1a64Wide("12345678"));
}

TEST(HashTest, WideFnvAndIndexHashArePinned) {
  // Stored hash indexes and pack checksums depend on these bits; a change
  // is a format version bump. Lengths 0-9 cover every tail size, with and
  // without a whole word before it.
  struct Pinned {
    std::string_view key;
    uint64_t wide;
    uint64_t index;
  };
  const Pinned pinned[] = {
      {"", 0xcbf29ce484222325ULL, 0xefd01f60ba992926ULL},
      {"a", 0xfc63dc4c8601ec8cULL, 0xf2f2d7fc4bbff79bULL},
      {"ab", 0x4981dc4c8634e68cULL, 0x26d301c7a49f967cULL},
      {"abc", 0xb581dc4cbae1e68cULL, 0x41ecfc258980f7e2ULL},
      {"abcd", 0x9a81dce90ee1e68cULL, 0xec7fb0a899f336a2ULL},
      {"abcde", 0xe78134b00ee1e68cULL, 0x85236c8f75731849ULL},
      {"abcdefg", 0xe419eeb00ee1e68cULL, 0xac19ebaedbb8cec7ULL},
      {"abcdefgh", 0x3919eeb00ee1e68cULL, 0x425754ea52f72348ULL},
      {"abcdefghi", 0x35f77a2949db571fULL, 0xec9f58b68d31a5dcULL},
      {"p:0:3", 0xb859d797f8c10b6fULL, 0xbf022a4b0a846611ULL},
      {"pp:1:2=>0:7", 0xb54cb4704f9b9a6dULL, 0x5ec1d9ea1fa0588eULL},
      {"t:cheap flights", 0xa4940969536706bfULL, 0xaf7a40270c9354d8ULL},
      {"tp:cheap flights@1:2", 0x05599f4cfc40e1bbULL, 0xea287b52b892c82eULL},
      {"rw:book now=>reserve today", 0x08817be7301d1a57ULL, 0xee97fde950b3a57dULL},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(Fnv1a64Wide(p.key), p.wide) << p.key;
    EXPECT_EQ(IndexHash(p.key), p.index) << p.key;
    const HashedKey hashed(p.key);
    EXPECT_EQ(hashed.text(), p.key);
    EXPECT_EQ(hashed.hash(), p.index) << p.key;
    EXPECT_EQ(hashed.hash(), p.index) << p.key;  // Kept, not recomputed wrongly.
  }
}

/// Fnv1a64Wide as first written: the tail copied byte by byte into a
/// zeroed word.
uint64_t ByteCopyWideFnv(std::string_view data) {
  uint64_t h = kFnv64Basis;
  size_t n = data.size();
  const char* p = data.data();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kFnv64Prime;
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w ^ (static_cast<uint64_t>(n) << 56)) * kFnv64Prime;
  }
  return h;
}

TEST(HashTest, WideFnvEqualsTheByteCopyReference) {
  // Every length 0-80 at offsets 0-3 of one buffer, so the tail's
  // overlapping loads reach back into (and, for short keys, stay inside)
  // the key at every alignment. Bytes run through 0x00 and 0xff.
  std::string buffer(96, '\0');
  for (size_t k = 0; k < buffer.size(); ++k) buffer[k] = static_cast<char>(k * 37 + 11);
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t length = 0; length <= 80; ++length) {
      const std::string_view key(buffer.data() + offset, length);
      EXPECT_EQ(Fnv1a64Wide(key), ByteCopyWideFnv(key)) << offset << "+" << length;
      EXPECT_EQ(IndexHash(key), Mix64(ByteCopyWideFnv(key))) << offset << "+" << length;
    }
  }
}

TEST(HashIndexTest, FindWithAHashedKeyEqualsFindWithItsText) {
  const std::vector<std::string> keys = IndexKeys(300);
  std::vector<uint64_t> offsets;
  std::string bytes;
  const StringTable table = TableOf(keys, &offsets, &bytes);
  auto slots = HashIndex::Build(Views(keys));
  ASSERT_TRUE(slots.ok());
  auto index = HashIndex::Open(slots->data(), slots->size(), keys.size());
  ASSERT_TRUE(index.ok());
  for (const std::string& key : keys) {
    EXPECT_EQ(index->Find(table, HashedKey(key)), index->Find(table, key)) << key;
  }
  EXPECT_EQ(index->Find(table, HashedKey("t:absent")), HashIndex::kNotFound);
  EXPECT_EQ(HashIndex().Find(StringTable(), HashedKey("anything")), HashIndex::kNotFound);
}

}  // namespace
}  // namespace pack
}  // namespace microbrowse
