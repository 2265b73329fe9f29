// Copyright 2026 The Microbrowse Authors
//
// Opens an mbpack container for in-place use. Open() maps the file,
// validates structure and checksums (one sequential pass — a truncated or
// bit-flipped pack never survives to the accessors), then hands out
// zero-copy typed views into the mapping:
//
//   auto reader = PackReader::Open("stats.mbp");
//   MB_ASSIGN_OR_RETURN(auto counts, (*reader)->Array<int64_t>(kMySection));
//   MB_ASSIGN_OR_RETURN(auto names, (*reader)->Strings(kOffsets, kBytes));
//   std::string_view first = names.at(0);
//
// Key lookups go through a stored hash index (pack/hash_index.h) written
// next to the table; LowerBound serves range scans of sorted tables.
//
// Views borrow the mapping: callers keep the shared_ptr<const PackReader>
// alive for as long as any view (or pointer derived from one) is in use.
// Serving code does this by storing the shared_ptr next to the views in the
// bundle / registry / stats-db object that owns them.

#ifndef MICROBROWSE_PACK_PACK_READER_H_
#define MICROBROWSE_PACK_PACK_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "pack/format.h"
#include "pack/mapped_file.h"

namespace microbrowse {
namespace pack {

/// A sorted (or id-ordered) string table laid out as an offsets array plus
/// a concatenated byte blob: string i is bytes [offsets[i], offsets[i+1]).
/// The offsets array has count+1 entries, offsets[0] == 0.
class StringTable {
 public:
  StringTable() = default;
  StringTable(const uint64_t* offsets, size_t count, const char* bytes)
      : offsets_(offsets), count_(count), bytes_(bytes) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  std::string_view at(size_t i) const {
    return std::string_view(bytes_ + offsets_[i],
                            static_cast<size_t>(offsets_[i + 1] - offsets_[i]));
  }

  /// Index of the first entry not less than `key` (size() when none), for
  /// a sorted table.
  size_t LowerBound(std::string_view key) const;

 private:
  const uint64_t* offsets_ = nullptr;  ///< count_ + 1 entries.
  size_t count_ = 0;
  const char* bytes_ = nullptr;
};

/// How a pack failed structural validation (all map onto IOError statuses;
/// the enum exists so tests can assert on the failure class via message).
///
/// An opened PackReader is immutable and internally synchronised by virtue
/// of being read-only; sharing one shared_ptr<const PackReader> across
/// threads is safe.
class PackReader {
 public:
  /// Maps `path` and validates: magic, version, endianness, declared vs
  /// actual file size, header checksum, section-table bounds + alignment,
  /// footer magic and the whole-file checksum. Any problem -> IOError and
  /// no reader. Failpoint: pack.open fires after successful validation.
  static Result<std::shared_ptr<const PackReader>> Open(const std::string& path);

  /// The whole-file checksum recorded in the footer (verified at open).
  /// Doubles as a content fingerprint for reload short-circuiting.
  uint64_t file_checksum() const { return file_checksum_; }
  size_t file_size() const { return file_.size(); }
  const std::string& path() const { return path_; }

  struct SectionInfo {
    uint32_t type = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
  };
  const std::vector<SectionInfo>& sections() const { return sections_; }

  bool HasSection(uint32_t type) const;

  /// Raw payload bytes of a section; NotFound when the type is absent.
  Result<std::string_view> Section(uint32_t type) const;

  /// Typed array view of a section: the payload must divide evenly into
  /// sizeof(T) (alignment holds by construction — sections start 8-aligned).
  template <typename T>
  Result<const T*> Array(uint32_t type, size_t* count) const {
    static_assert(std::is_trivially_copyable_v<T>, "Array needs a POD type");
    static_assert(alignof(T) <= kSectionAlignment, "T over-aligned for a section");
    MB_ASSIGN_OR_RETURN(std::string_view bytes, Section(type));
    if (bytes.size() % sizeof(T) != 0) {
      return Status::IOError(path_ + ": section " + std::to_string(type) + " size " +
                             std::to_string(bytes.size()) + " not a multiple of " +
                             std::to_string(sizeof(T)));
    }
    *count = bytes.size() / sizeof(T);
    return reinterpret_cast<const T*>(bytes.data());
  }

  /// String-table view over an offsets section + a bytes section. Validates
  /// that offsets are monotone and end exactly at the blob size, so at()
  /// can never read out of bounds later.
  Result<StringTable> Strings(uint32_t offsets_type, uint32_t bytes_type) const;

 private:
  PackReader() = default;

  MappedFile file_;
  std::string path_;
  uint64_t file_checksum_ = 0;
  std::vector<SectionInfo> sections_;
};

}  // namespace pack
}  // namespace microbrowse

#endif  // MICROBROWSE_PACK_PACK_READER_H_
