// Copyright 2026 The Microbrowse Authors

#include "io/pack_artifacts.h"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/trace.h"
#include "pack/hash_index.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"

namespace microbrowse {

namespace {

Status BadPack(const std::string& path, const std::string& what) {
  return Status::IOError(path + ": " + what);
}

/// Reads the whole file as raw bytes (no artifact framing — packs and TSV
/// files alike).
Result<std::string> ReadRawFile(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed for " + path);
  return std::move(buffer).str();
}

/// Appends one string table (offsets section `base`, bytes section
/// `base + 1`) built from `keys` in the given order.
void AddStringSections(pack::PackWriter* writer, uint32_t base,
                       const std::vector<std::string_view>& keys) {
  pack::SectionBuilder offsets;
  pack::SectionBuilder bytes;
  uint64_t offset = 0;
  offsets.AppendPod<uint64_t>(offset);
  for (std::string_view key : keys) {
    offset += key.size();
    offsets.AppendPod<uint64_t>(offset);
    bytes.AppendBytes(key);
  }
  writer->AddSection(base, std::move(offsets).Take());
  writer->AddSection(base + 1, std::move(bytes).Take());
}

/// Appends the hash index over `keys` (in the given order) as section
/// `type`. InvalidArgument when a key repeats.
Status AddIndexSection(pack::PackWriter* writer, uint32_t type,
                       const std::vector<std::string_view>& keys) {
  MB_ASSIGN_OR_RETURN(const std::vector<uint32_t> slots, pack::HashIndex::Build(keys));
  pack::SectionBuilder builder;
  builder.AppendArray(slots);
  writer->AddSection(type, std::move(builder).Take());
  return Status::OK();
}

/// Opens the hash index in section `type` over `keys`, validating it.
Result<pack::HashIndex> LoadIndex(const pack::PackReader& reader, uint32_t type,
                                  const pack::StringTable& keys, const std::string& what) {
  size_t slot_count = 0;
  MB_ASSIGN_OR_RETURN(const uint32_t* slots, reader.Array<uint32_t>(type, &slot_count));
  Result<pack::HashIndex> index = pack::HashIndex::Open(slots, slot_count, keys.size());
  if (!index.ok()) return BadPack(reader.path(), what + ": " + index.status().message());
  return index;
}

/// Validates that `table` is strictly ascending — the invariant the "rw:"
/// range scan (StringTable::LowerBound) needs, checked once at open.
Status CheckSorted(const std::string& path, const pack::StringTable& table,
                   const std::string& what) {
  for (size_t i = 1; i < table.size(); ++i) {
    if (!(table.at(i - 1) < table.at(i))) {
      return BadPack(path, what + ": keys not strictly ascending at index " +
                               std::to_string(i));
    }
  }
  return Status::OK();
}

/// Emits the five sections of one registry block (see pack_artifacts.h).
Status AddRegistrySections(pack::PackWriter* writer, uint32_t base,
                           const FeatureRegistry& registry,
                           const std::vector<double>& trained_weights) {
  const size_t n = registry.size();
  std::vector<std::string_view> names(n);
  for (size_t i = 0; i < n; ++i) names[i] = registry.NameOf(static_cast<FeatureId>(i));
  AddStringSections(writer, base, names);
  MB_RETURN_IF_ERROR(AddIndexSection(writer, base + 5, names));

  pack::SectionBuilder initial_builder;
  initial_builder.AppendArray(registry.InitialWeights());
  writer->AddSection(base + 3, std::move(initial_builder).Take());

  pack::SectionBuilder trained_builder;
  trained_builder.AppendArray(trained_weights);
  writer->AddSection(base + 4, std::move(trained_builder).Take());
  return Status::OK();
}

/// Opens one registry block: attaches the in-place base layer to
/// `registry` and copies the dense trained weights into `trained`.
Status LoadRegistryPack(const std::shared_ptr<const pack::PackReader>& reader, uint32_t base,
                        uint64_t expected_count, const std::string& what,
                        FeatureRegistry* registry, std::vector<double>* trained) {
  const std::string& path = reader->path();
  MB_ASSIGN_OR_RETURN(const pack::StringTable names, reader->Strings(base, base + 1));
  if (names.size() != expected_count) {
    return BadPack(path, what + ": name count " + std::to_string(names.size()) +
                             " != declared " + std::to_string(expected_count));
  }
  MB_ASSIGN_OR_RETURN(const pack::HashIndex index, LoadIndex(*reader, base + 5, names, what));
  size_t initial_count = 0;
  MB_ASSIGN_OR_RETURN(const double* initial,
                      reader->Array<double>(base + 3, &initial_count));
  if (initial_count != names.size()) {
    return BadPack(path, what + ": initial-weight count mismatch");
  }
  size_t trained_count = 0;
  MB_ASSIGN_OR_RETURN(const double* trained_data,
                      reader->Array<double>(base + 4, &trained_count));
  if (trained_count != names.size()) {
    return BadPack(path, what + ": trained-weight count mismatch");
  }
  trained->assign(trained_data, trained_data + trained_count);
  registry->AttachPackBase(reader, names, index, initial);
  return Status::OK();
}

}  // namespace

Status SaveStatsPack(const FeatureStatsDb& db, const std::string& path) {
  TraceSpan span("mb.artifact.write");
  struct Row {
    std::string_view key;
    const FeatureStat* stat;
  };
  std::array<std::vector<Row>, kNumStatsClasses> classes;
  db.ForEach([&classes](std::string_view key, const FeatureStat& stat) {
    classes[static_cast<size_t>(StatsKeyClass(key))].push_back(Row{key, &stat});
  });

  pack::PackWriter writer;
  StatsMeta meta;
  meta.smoothing = db.smoothing();
  meta.min_count = db.min_count();
  for (int c = 0; c < kNumStatsClasses; ++c) {
    meta.class_counts[c] = classes[static_cast<size_t>(c)].size();
  }
  pack::SectionBuilder meta_builder;
  meta_builder.AppendPod(meta);
  writer.AddSection(kSecStatsMeta, std::move(meta_builder).Take());

  for (int c = 0; c < kNumStatsClasses; ++c) {
    std::vector<Row>& rows = classes[static_cast<size_t>(c)];
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.key < b.key; });
    std::vector<std::string_view> keys;
    keys.reserve(rows.size());
    pack::SectionBuilder records;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0 && rows[i].key == rows[i - 1].key) {
        return Status::InvalidArgument("SaveStatsPack: duplicate key \"" +
                                       std::string(rows[i].key) + "\"");
      }
      keys.push_back(rows[i].key);
      records.AppendPod(*rows[i].stat);
    }
    AddStringSections(&writer, StatsClassSection(c), keys);
    writer.AddSection(StatsClassSection(c) + 2, std::move(records).Take());
    MB_RETURN_IF_ERROR(AddIndexSection(&writer, StatsClassSection(c) + 3, keys));
  }
  return writer.Finish(path);
}

Result<FeatureStatsDb> LoadStatsPack(const std::string& path) {
  MB_ASSIGN_OR_RETURN(std::shared_ptr<const pack::PackReader> reader,
                      pack::PackReader::Open(path));
  size_t meta_count = 0;
  MB_ASSIGN_OR_RETURN(const StatsMeta* meta,
                      reader->Array<StatsMeta>(kSecStatsMeta, &meta_count));
  if (meta_count != 1) return BadPack(path, "stats meta section malformed");
  if (!FeatureStatsDb::ValidSmoothing(meta->smoothing)) {
    return BadPack(path, "stats meta: smoothing must be positive and finite");
  }
  if (meta->min_count < 0) return BadPack(path, "stats meta: min_count must not be negative");

  FeatureStatsDb db;
  db.set_smoothing(meta->smoothing);
  db.set_min_count(meta->min_count);
  std::array<FeatureStatsDb::BaseClass, kNumStatsClasses> base;
  for (int c = 0; c < kNumStatsClasses; ++c) {
    const uint32_t section = StatsClassSection(c);
    const std::string what = "stats class " + std::to_string(c);
    MB_ASSIGN_OR_RETURN(const pack::StringTable keys,
                        reader->Strings(section, section + 1));
    size_t record_count = 0;
    MB_ASSIGN_OR_RETURN(const FeatureStat* records,
                        reader->Array<FeatureStat>(section + 2, &record_count));
    if (keys.size() != record_count || record_count != meta->class_counts[c]) {
      return BadPack(path, what + ": key/record/declared count mismatch");
    }
    MB_RETURN_IF_ERROR(CheckSorted(path, keys, what));
    MB_ASSIGN_OR_RETURN(const pack::HashIndex index, LoadIndex(*reader, section + 3, keys, what));
    // The TSV loader's row check, once at open like the key order.
    for (size_t i = 0; i < record_count; ++i) {
      if (records[i].positive < 0 || records[i].total < records[i].positive) {
        return BadPack(path, what + ": invalid stat counts at index " + std::to_string(i));
      }
    }
    base[static_cast<size_t>(c)] = FeatureStatsDb::BaseClass{keys, index, records};
  }
  db.AttachPackBase(std::move(reader), base);
  db.BuildRewriteIndex();
  return db;
}

Status SaveClassifierPack(const SnippetClassifierModel& model,
                          const FeatureRegistry& t_registry, const FeatureRegistry& p_registry,
                          const std::string& path) {
  TraceSpan span("mb.artifact.write");
  if (model.t_weights.size() != t_registry.size() ||
      model.p_weights.size() != p_registry.size()) {
    return Status::InvalidArgument("SaveClassifierPack: weight/registry size mismatch");
  }
  pack::PackWriter writer;
  ModelMeta meta;
  meta.bias = model.bias;
  meta.t_count = t_registry.size();
  meta.p_count = p_registry.size();
  pack::SectionBuilder meta_builder;
  meta_builder.AppendPod(meta);
  writer.AddSection(kSecModelMeta, std::move(meta_builder).Take());
  MB_RETURN_IF_ERROR(AddRegistrySections(&writer, kSecTRegistry, t_registry, model.t_weights));
  MB_RETURN_IF_ERROR(AddRegistrySections(&writer, kSecPRegistry, p_registry, model.p_weights));
  return writer.Finish(path);
}

Result<SavedClassifier> LoadClassifierPack(const std::string& path) {
  MB_ASSIGN_OR_RETURN(std::shared_ptr<const pack::PackReader> reader,
                      pack::PackReader::Open(path));
  size_t meta_count = 0;
  MB_ASSIGN_OR_RETURN(const ModelMeta* meta,
                      reader->Array<ModelMeta>(kSecModelMeta, &meta_count));
  if (meta_count != 1) return BadPack(path, "model meta section malformed");

  SavedClassifier saved;
  saved.model.bias = meta->bias;
  MB_RETURN_IF_ERROR(LoadRegistryPack(reader, kSecTRegistry, meta->t_count, "T registry",
                                      &saved.t_registry, &saved.model.t_weights));
  MB_RETURN_IF_ERROR(LoadRegistryPack(reader, kSecPRegistry, meta->p_count, "P registry",
                                      &saved.p_registry, &saved.model.p_weights));
  return saved;
}

Result<bool> IsPackFile(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[sizeof(pack::kHeaderMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic))) return false;
  return std::memcmp(magic, pack::kHeaderMagic, sizeof(magic)) == 0;
}

Result<std::string> DescribePack(const std::string& path) {
  MB_ASSIGN_OR_RETURN(std::shared_ptr<const pack::PackReader> reader,
                      pack::PackReader::Open(path));
  std::ostringstream out;
  out << "mbpack " << path << "\n";
  out << "  format version : " << pack::kFormatVersion << "\n";
  out << "  file size      : " << reader->file_size() << " bytes\n";
  out << "  file checksum  : 0x" << std::hex << std::setfill('0') << std::setw(16)
      << reader->file_checksum() << std::dec << std::setfill(' ') << "\n";
  out << "  sections       : " << reader->sections().size() << "\n";
  auto section_name = [](uint32_t type) -> std::string {
    if (type == kSecStatsMeta) return "stats-meta";
    if (type == kSecModelMeta) return "model-meta";
    for (int c = 0; c < kNumStatsClasses; ++c) {
      const uint32_t base = StatsClassSection(c);
      if (type == base) return "stats-c" + std::to_string(c) + "-key-offsets";
      if (type == base + 1) return "stats-c" + std::to_string(c) + "-key-bytes";
      if (type == base + 2) return "stats-c" + std::to_string(c) + "-records";
      if (type == base + 3) return "stats-c" + std::to_string(c) + "-key-index";
    }
    for (const auto& [base, tag] :
         {std::pair<uint32_t, const char*>{kSecTRegistry, "t"}, {kSecPRegistry, "p"}}) {
      // +2 is retired (format 1's sorted permutation).
      static constexpr const char* kPart[] = {"name-offsets",    "name-bytes",
                                              nullptr,           "initial-weights",
                                              "trained-weights", "name-index"};
      if (type >= base && type < base + 6 && kPart[type - base] != nullptr) {
        return std::string(tag) + "-registry-" + kPart[type - base];
      }
    }
    return "unknown";
  };
  for (const auto& section : reader->sections()) {
    out << "    type " << std::setw(3) << section.type << "  " << std::setw(26) << std::left
        << section_name(section.type) << std::right << " offset " << std::setw(10)
        << section.offset << "  size " << std::setw(10) << section.size << "  checksum 0x"
        << std::hex << std::setfill('0') << std::setw(16) << section.checksum << std::dec
        << std::setfill(' ') << "\n";
  }
  if (reader->HasSection(kSecStatsMeta)) {
    size_t n = 0;
    MB_ASSIGN_OR_RETURN(const StatsMeta* meta, reader->Array<StatsMeta>(kSecStatsMeta, &n));
    if (n != 1) return BadPack(path, "stats meta section malformed");
    uint64_t total = 0;
    for (uint64_t count : meta->class_counts) total += count;
    out << "  artifact       : feature-statistics database\n";
    out << "    smoothing    : " << meta->smoothing << "\n";
    out << "    min count    : " << meta->min_count << "\n";
    out << "    keys         : " << total << " (";
    for (int c = 0; c < kNumStatsClasses; ++c) {
      out << (c > 0 ? ", " : "") << "class " << c << ": " << meta->class_counts[c];
    }
    out << ")\n";
  }
  if (reader->HasSection(kSecModelMeta)) {
    size_t n = 0;
    MB_ASSIGN_OR_RETURN(const ModelMeta* meta, reader->Array<ModelMeta>(kSecModelMeta, &n));
    if (n != 1) return BadPack(path, "model meta section malformed");
    out << "  artifact       : snippet classifier\n";
    out << "    bias         : " << meta->bias << "\n";
    out << "    T features   : " << meta->t_count << "\n";
    out << "    P features   : " << meta->p_count << "\n";
  }
  return std::move(out).str();
}

Result<uint64_t> FileChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  // Pack fast path: the footer already records a checksum over every byte
  // before it, so the fingerprint is header-magic + footer reads plus a
  // stat — O(1) in the artifact size (a pack may be bigger than RAM).
  // Folding in the inode and mtime makes the fingerprint move on *any*
  // push, including a corrupt in-place rewrite whose forged footer still
  // matches — the push then takes the full-reload path, where the
  // checksummed open rejects it. Whether the footer checksum is *true* is
  // always the open path's job, never the fingerprint's.
  char magic[sizeof(pack::kHeaderMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
      std::memcmp(magic, pack::kHeaderMagic, sizeof(magic)) == 0) {
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    struct stat file_stat;
    if (size >= static_cast<std::streamoff>(pack::kMinFileSize) &&
        ::stat(path.c_str(), &file_stat) == 0) {
      in.seekg(size - static_cast<std::streamoff>(sizeof(pack::PackFooter)));
      pack::PackFooter footer;
      in.read(reinterpret_cast<char*>(&footer), sizeof(footer));
      if (in.gcount() == static_cast<std::streamsize>(sizeof(footer)) &&
          std::memcmp(footer.magic, pack::kFooterMagic, sizeof(footer.magic)) == 0) {
        uint64_t fingerprint = HashCombine(footer.file_checksum, static_cast<uint64_t>(size));
        fingerprint = HashCombine(fingerprint, static_cast<uint64_t>(file_stat.st_ino));
        fingerprint = HashCombine(fingerprint, static_cast<uint64_t>(file_stat.st_mtim.tv_sec));
        fingerprint =
            HashCombine(fingerprint, static_cast<uint64_t>(file_stat.st_mtim.tv_nsec));
        return fingerprint;
      }
    }
    in.clear();
    in.seekg(0);
  }
  MB_ASSIGN_OR_RETURN(const std::string bytes, ReadRawFile(path));
  return Fnv1a64(bytes);
}

}  // namespace microbrowse
