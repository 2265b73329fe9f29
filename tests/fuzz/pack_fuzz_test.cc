// Copyright 2026 The Microbrowse Authors
//
// Fuzz-smoke coverage for the mbpack header/section parser (pack/format.h,
// pack/pack_reader.cc). Three properties:
//   truncation  — a valid pack cut at *every* byte boundary is rejected at
//                 open, never crashes, and never opens successfully;
//   byte soup   — arbitrary bytes (with and without a valid magic prefix)
//                 never crash the open path;
//   bit flips   — seeded random corruption of a valid artifact pack is
//                 rejected, and the artifact loaders built on top
//                 (LoadStatsPack / LoadClassifierPack) surface an error
//                 instead of crashing or returning garbage.
// Deterministic seeds; tier-1-friendly sizes (label fuzz-smoke).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/pack_artifacts.h"
#include "microbrowse/stats_db.h"
#include "pack/format.h"
#include "pack/hash_index.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"

namespace microbrowse {
namespace {

std::string FuzzPath(const std::string& name) {
  return ::testing::TempDir() + "/pack_fuzz_" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

/// A small but real artifact pack: a stats database with a few dozen keys
/// across all n-gram classes, written through the production save path.
std::string WriteStatsPack(const std::string& name) {
  const std::string path = FuzzPath(name);
  FeatureStatsDb db;
  for (int i = 0; i < 12; ++i) {
    const std::string suffix = std::to_string(i);
    db.SetStat("t:uni" + suffix, i, 2 * i + 1);
    db.SetStat("t:bi gram" + suffix, i / 2, i + 3);
    db.SetStat("t:tri gram here" + suffix, 1, i + 1);
    db.SetStat("p:0," + suffix, i % 3, i + 2);
  }
  EXPECT_TRUE(SaveStatsPack(db, path).ok());
  return path;
}

TEST(PackFuzzTest, TruncationAtEveryBoundaryIsRejected) {
  const std::string full_path = WriteStatsPack("trunc_src.mbp");
  const std::string bytes = ReadAll(full_path);
  ASSERT_GE(bytes.size(), pack::kMinFileSize);
  const std::string path = FuzzPath("trunc.mbp");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(path, bytes.substr(0, len));
    EXPECT_FALSE(pack::PackReader::Open(path).ok()) << "prefix of " << len << " bytes opened";
  }
  WriteAll(path, bytes);
  EXPECT_TRUE(pack::PackReader::Open(path).ok());
}

TEST(PackFuzzTest, ByteSoupNeverCrashesTheOpenPath) {
  Rng rng(20260807);
  const std::string path = FuzzPath("soup.mbp");
  for (int iteration = 0; iteration < 400; ++iteration) {
    const size_t len = rng.NextIndex(512);
    std::string soup;
    soup.reserve(len + sizeof(pack::kHeaderMagic));
    // Half the cases start with a valid magic so the parser gets past the
    // first check and exercises the header/table/footer validation.
    if (iteration % 2 == 0) {
      soup.assign(pack::kHeaderMagic, sizeof(pack::kHeaderMagic));
    }
    for (size_t i = 0; i < len; ++i) {
      soup.push_back(static_cast<char>(rng.NextIndex(256)));
    }
    WriteAll(path, soup);
    auto reader = pack::PackReader::Open(path);
    // Random bytes validating against three layered checksums: any success
    // here is a bug, not luck.
    EXPECT_FALSE(reader.ok()) << "iteration " << iteration;
    auto stats = LoadStatsPack(path);
    EXPECT_FALSE(stats.ok()) << "iteration " << iteration;
  }
}

TEST(PackFuzzTest, RandomBitFlipsAreRejectedByEveryLayer) {
  Rng rng(77);
  const std::string good = WriteStatsPack("flip_src.mbp");
  const std::string bytes = ReadAll(good);
  const std::string path = FuzzPath("flip.mbp");
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::string damaged = bytes;
    const size_t victim = rng.NextIndex(damaged.size());
    const int bit = static_cast<int>(rng.NextIndex(8));
    damaged[victim] = static_cast<char>(damaged[victim] ^ (1 << bit));
    WriteAll(path, damaged);
    EXPECT_FALSE(pack::PackReader::Open(path).ok())
        << "byte " << victim << " bit " << bit;
    EXPECT_FALSE(LoadStatsPack(path).ok()) << "byte " << victim << " bit " << bit;
    auto is_pack = IsPackFile(path);
    // Sniffing stays byte-level: damage elsewhere must not break it.
    if (victim >= sizeof(pack::kHeaderMagic)) {
      ASSERT_TRUE(is_pack.ok());
      EXPECT_TRUE(*is_pack);
    }
  }
}

TEST(PackFuzzTest, SectionPayloadSoupNeverCrashesArtifactLoaders) {
  // Structurally valid packs (checksums intact) whose *section payloads* are
  // random bytes: the artifact schema validation in pack_artifacts.cc has to
  // reject them without crashing — this is the layer below the file
  // checksums, where lengths and offsets inside payloads are attacker data.
  Rng rng(4242);
  const std::string path = FuzzPath("schema_soup.mbp");
  for (int iteration = 0; iteration < 200; ++iteration) {
    pack::PackWriter writer;
    const int n_sections = 1 + static_cast<int>(rng.NextIndex(6));
    for (int s = 0; s < n_sections; ++s) {
      // Bias toward the stats schema's section ids so its loader engages.
      const uint32_t type = static_cast<uint32_t>(
          rng.NextIndex(2) == 0 ? 10 + rng.NextIndex(30) : rng.NextIndex(100));
      const size_t len = rng.NextIndex(128);
      std::string payload;
      payload.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        payload.push_back(static_cast<char>(rng.NextIndex(256)));
      }
      writer.AddSection(type, std::move(payload));
    }
    const Status written = writer.Finish(path);
    if (!written.ok()) continue;  // Duplicate section types: writer output rejected later.
    auto stats = LoadStatsPack(path);
    auto classifier = LoadClassifierPack(path);
    // Either loader may fail for many reasons; neither may crash or succeed
    // with fabricated sections that never came from the save path.
    EXPECT_FALSE(stats.ok()) << "iteration " << iteration;
    EXPECT_FALSE(classifier.ok()) << "iteration " << iteration;
  }
}

TEST(PackFuzzTest, DamagedHashIndexIsRefusedOrProbesSafely) {
  // Valid indexes with one to three slots overwritten (zeroed, copied from
  // another slot, or random bits): Open either refuses the slots or accepts
  // them, and then every probe stops and returns an index whose key is the
  // one asked for. Reaching the end without a hang or a sanitizer report is
  // the point; the pass rate is reported, not asserted.
  Rng rng(2424);
  int accepted = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const size_t key_count = rng.NextIndex(40);
    std::vector<std::string> keys;
    std::vector<uint64_t> offsets = {0};
    std::string bytes;
    for (size_t i = 0; i < key_count; ++i) {
      keys.push_back("k" + std::to_string(rng.NextIndex(1000)) + "_" + std::to_string(i));
      bytes += keys.back();
      offsets.push_back(bytes.size());
    }
    auto built = pack::HashIndex::Build(std::vector<std::string_view>(keys.begin(), keys.end()));
    ASSERT_TRUE(built.ok());
    std::vector<uint32_t> slots = *built;
    for (int damage = 1 + static_cast<int>(rng.NextIndex(3)); damage > 0; --damage) {
      uint32_t& slot = slots[rng.NextIndex(slots.size())];
      switch (rng.NextIndex(3)) {
        case 0: slot = 0; break;
        case 1: slot = slots[rng.NextIndex(slots.size())]; break;
        default: slot = static_cast<uint32_t>(rng.NextU64()); break;
      }
    }
    auto index = pack::HashIndex::Open(slots.data(), slots.size(), key_count);
    if (!index.ok()) {
      EXPECT_EQ(index.status().code(), StatusCode::kIOError);
      continue;
    }
    ++accepted;
    const pack::StringTable table(offsets.data(), key_count, bytes.data());
    for (size_t probe = 0; probe < 20; ++probe) {
      const std::string key = probe < key_count ? keys[probe] : "absent" + std::to_string(probe);
      const size_t found = index->Find(table, key);
      if (found != pack::HashIndex::kNotFound) {
        ASSERT_LT(found, key_count);
        EXPECT_EQ(table.at(found), key);
      }
    }
  }
  std::printf("damaged hash indexes accepted: %d of 2000\n", accepted);
}

}  // namespace
}  // namespace microbrowse
