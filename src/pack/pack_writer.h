// Copyright 2026 The Microbrowse Authors
//
// Assembles an mbpack container in memory and writes it through the
// crash-safe atomic path of io/atomic_file.h: readers either see the
// complete previous pack or the complete new one, never a torn file.
// Checksums (header, per-section, whole-file) are computed here so that a
// freshly written pack always round-trips through PackReader::Open.
//
// Typical use (an artifact schema in io/pack_artifacts.cc):
//
//   PackWriter writer;
//   SectionBuilder keys;
//   for (...) keys.AppendPod<uint64_t>(offset);
//   writer.AddSection(kMySectionId, std::move(keys).Take());
//   MB_RETURN_IF_ERROR(writer.Finish(path));

#ifndef MICROBROWSE_PACK_PACK_WRITER_H_
#define MICROBROWSE_PACK_PACK_WRITER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "pack/format.h"

namespace microbrowse {
namespace pack {

/// Byte-buffer builder for one section payload. POD values are appended in
/// native byte order, matching the reader's reinterpret_cast views.
class SectionBuilder {
 public:
  /// Appends the raw bytes of a trivially-copyable value.
  template <typename T>
  void AppendPod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "AppendPod needs a POD type");
    const size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  /// Appends a whole array of trivially-copyable values.
  template <typename T>
  void AppendArray(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>, "AppendArray needs POD types");
    if (values.empty()) return;  // memcpy from an empty vector's null data() is UB.
    const size_t at = bytes_.size();
    bytes_.resize(at + values.size() * sizeof(T));
    std::memcpy(bytes_.data() + at, values.data(), values.size() * sizeof(T));
  }

  /// Appends raw string bytes (no terminator; offsets index into the blob).
  void AppendBytes(std::string_view bytes) { bytes_.append(bytes); }

  size_t size() const { return bytes_.size(); }
  std::string Take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Collects sections and writes the finished container atomically.
class PackWriter {
 public:
  /// Adds a section. `type` must be unique within this pack (checked in
  /// Finish). Section order in the file follows insertion order.
  void AddSection(uint32_t type, std::string payload) {
    sections_.push_back(Section{type, std::move(payload)});
  }

  /// Assembles header + table + aligned payloads + footer and writes the
  /// result via WriteFileAtomic. On any failure `path` is untouched.
  Status Finish(const std::string& path) const;

 private:
  struct Section {
    uint32_t type;
    std::string payload;
  };
  std::vector<Section> sections_;
};

}  // namespace pack
}  // namespace microbrowse

#endif  // MICROBROWSE_PACK_PACK_WRITER_H_
