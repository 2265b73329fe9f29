// Copyright 2026 The Microbrowse Authors

#include "pack/pack_reader.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"
#include "common/hash.h"

namespace microbrowse {
namespace pack {

namespace {

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::IOError(path + ": not a valid mbpack: " + why);
}

}  // namespace

size_t StringTable::LowerBound(std::string_view key) const {
  size_t lo = 0, hi = count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<std::shared_ptr<const PackReader>> PackReader::Open(const std::string& path) {
  MB_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  const uint8_t* data = file.data();
  const size_t size = file.size();
  if (size < kMinFileSize) return Corrupt(path, "file smaller than header + footer");

  // Header first, via memcpy — validating before trusting any length field.
  PackHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kHeaderMagic, sizeof(header.magic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  if (header.version != kFormatVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(header.version));
  }
  if (header.endian_marker != kEndianMarker) {
    return Corrupt(path, "endianness mismatch (pack written on a different architecture)");
  }
  const uint64_t header_hash = Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(data), offsetof(PackHeader, header_checksum)));
  if (header.header_checksum != header_hash) return Corrupt(path, "header checksum mismatch");
  if (header.file_size != size) {
    return Corrupt(path, "declared size " + std::to_string(header.file_size) +
                             " != actual " + std::to_string(size) + " (truncated?)");
  }
  if (header.reserved != 0 || header.reserved2 != 0) {
    return Corrupt(path, "reserved header fields set");
  }

  // Section table bounds.
  const uint64_t table_offset = sizeof(PackHeader);
  const uint64_t table_end =
      table_offset + static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  const uint64_t payload_floor = size - sizeof(PackFooter);
  if (table_end > payload_floor || header.payload_start < table_end ||
      header.payload_start > payload_floor) {
    return Corrupt(path, "section table out of bounds");
  }

  // Footer + whole-file checksum: one sequential pass over the mapping.
  // After this, every byte the section views can reach is known-good.
  PackFooter footer;
  std::memcpy(&footer, data + size - sizeof(PackFooter), sizeof(footer));
  if (std::memcmp(footer.magic, kFooterMagic, sizeof(footer.magic)) != 0) {
    return Corrupt(path, "bad footer magic (truncated?)");
  }
  const uint64_t file_hash = Fnv1a64Wide(
      std::string_view(reinterpret_cast<const char*>(data), size - sizeof(PackFooter)));
  if (footer.file_checksum != file_hash) return Corrupt(path, "file checksum mismatch");

  auto reader = std::shared_ptr<PackReader>(new PackReader());
  reader->file_ = std::move(file);
  reader->path_ = path;
  reader->file_checksum_ = footer.file_checksum;
  reader->sections_.reserve(header.section_count);
  const uint8_t* base = reader->file_.data();
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + table_offset + i * sizeof(SectionEntry), sizeof(entry));
    if (entry.offset % kSectionAlignment != 0) {
      return Corrupt(path, "section " + std::to_string(entry.type) + " misaligned");
    }
    if (entry.offset < header.payload_start || entry.offset > payload_floor ||
        entry.size > payload_floor - entry.offset) {
      return Corrupt(path, "section " + std::to_string(entry.type) + " out of bounds");
    }
    for (const SectionInfo& prior : reader->sections_) {
      if (prior.type == entry.type) {
        return Corrupt(path, "duplicate section type " + std::to_string(entry.type));
      }
    }
    reader->sections_.push_back(
        SectionInfo{entry.type, entry.offset, entry.size, entry.checksum});
  }
  MB_FAILPOINT("pack.open");
  return std::shared_ptr<const PackReader>(std::move(reader));
}

bool PackReader::HasSection(uint32_t type) const {
  for (const SectionInfo& section : sections_) {
    if (section.type == type) return true;
  }
  return false;
}

Result<std::string_view> PackReader::Section(uint32_t type) const {
  for (const SectionInfo& section : sections_) {
    if (section.type == type) {
      return std::string_view(reinterpret_cast<const char*>(file_.data()) + section.offset,
                              static_cast<size_t>(section.size));
    }
  }
  return Status::NotFound(path_ + ": no section of type " + std::to_string(type));
}

Result<StringTable> PackReader::Strings(uint32_t offsets_type, uint32_t bytes_type) const {
  size_t offset_count = 0;
  MB_ASSIGN_OR_RETURN(const uint64_t* offsets, Array<uint64_t>(offsets_type, &offset_count));
  MB_ASSIGN_OR_RETURN(std::string_view bytes, Section(bytes_type));
  if (offset_count == 0) {
    return Corrupt(path_, "string-offset section " + std::to_string(offsets_type) +
                              " empty (needs count+1 entries)");
  }
  const size_t count = offset_count - 1;
  if (offsets[0] != 0 || offsets[count] != bytes.size() ||
      !std::is_sorted(offsets, offsets + offset_count)) {
    return Corrupt(path_, "string-offset section " + std::to_string(offsets_type) +
                              " inconsistent with its byte blob");
  }
  return StringTable(offsets, count, bytes.data());
}

}  // namespace pack
}  // namespace microbrowse
