// Copyright 2026 The Microbrowse Authors
//
// The on-disk layout of an mbpack container — an immutable, versioned,
// checksummed binary file designed to be used *in place* via mmap(2):
//
//   [PackHeader]        fixed 56 bytes at offset 0
//   [SectionEntry * N]  the section table, immediately after the header
//   [section payloads]  each starting at an 8-byte-aligned offset
//   [PackFooter]        fixed 16 bytes at the end of the file
//
// Integrity is layered so damage is caught before any section byte is
// interpreted:
//
//   - the header carries its own checksum (FNV-1a/64 over the header bytes
//     before the checksum field), so a torn or garbage header is rejected
//     without trusting any length field it declares;
//   - the footer carries a whole-file checksum (Fnv1a64Wide, the 8-bytes-
//     per-multiply FNV variant in common/hash.h — bulk checksums are on the
//     cold-start path) over every byte before the footer (header, table and
//     payloads), verified once at open — a single flipped bit anywhere in
//     the file fails the open;
//   - every section entry additionally records a per-section checksum
//     (also Fnv1a64Wide) so diagnostics (mbctl pack-inspect) can localise
//     damage to a section without re-deriving it from the file hash.
//
// Endianness and alignment rules (DESIGN.md section 14): all integers and
// doubles are stored in the *writer's native byte order*, and the header
// records a 32-bit endianness marker. A reader whose native order disagrees
// with the marker must refuse the file rather than byte-swap — packs are a
// same-architecture serving format, not an interchange format. Section
// offsets are 8-byte aligned so that int64/double payloads can be read
// through reinterpret_cast directly from the mapping.
//
// Section *type* ids are owned by the artifact schemas built on top of this
// container (io/pack_artifacts.h); the container itself only requires them
// to be unique within one file.

#ifndef MICROBROWSE_PACK_FORMAT_H_
#define MICROBROWSE_PACK_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace microbrowse {
namespace pack {

/// First 8 bytes of every mbpack file. The trailing byte doubles as a
/// format-generation fuse: "MBPACK1\0" readers will never misread a
/// hypothetical future "MBPACK2\0" layout as their own.
inline constexpr char kHeaderMagic[8] = {'M', 'B', 'P', 'A', 'C', 'K', '1', '\0'};
/// First 8 bytes of the footer.
inline constexpr char kFooterMagic[8] = {'M', 'B', 'P', 'K', 'E', 'N', 'D', '\0'};

/// Bumped on any incompatible layout change. Version 2 stores a hash index
/// (pack/hash_index.h) beside every string table that serving looks keys
/// up in and drops version 1's sorted registry permutation; readers refuse
/// every other version.
inline constexpr uint32_t kFormatVersion = 2;

/// Written as a native uint32; reads back as 0x01020304 only on a machine
/// with the writer's byte order.
inline constexpr uint32_t kEndianMarker = 0x01020304u;

/// Alignment of the section table and every section payload.
inline constexpr size_t kSectionAlignment = 8;

/// Fixed-size file header at offset 0.
struct PackHeader {
  char magic[8];            ///< kHeaderMagic.
  uint32_t version;         ///< kFormatVersion.
  uint32_t endian_marker;   ///< kEndianMarker in the writer's byte order.
  uint64_t file_size;       ///< Total file size in bytes, footer included.
  uint32_t section_count;   ///< Number of SectionEntry records.
  uint32_t reserved;        ///< Zero.
  uint64_t payload_start;   ///< Offset of the first section payload byte.
  uint64_t reserved2;       ///< Zero.
  /// FNV-1a/64 over the header bytes before this field.
  uint64_t header_checksum;
};
static_assert(sizeof(PackHeader) == 56, "PackHeader layout drifted");

/// One section-table entry.
struct SectionEntry {
  uint32_t type;      ///< Schema-owned section id; unique within the file.
  uint32_t reserved;  ///< Zero.
  uint64_t offset;    ///< From file start; 8-byte aligned.
  uint64_t size;      ///< Payload bytes (excludes alignment padding).
  uint64_t checksum;  ///< Fnv1a64Wide over the payload bytes.
};
static_assert(sizeof(SectionEntry) == 32, "SectionEntry layout drifted");

/// Fixed-size trailer at file_size - sizeof(PackFooter).
struct PackFooter {
  char magic[8];           ///< kFooterMagic.
  /// Fnv1a64Wide over bytes [0, file_size - sizeof(PackFooter)).
  uint64_t file_checksum;
};
static_assert(sizeof(PackFooter) == 16, "PackFooter layout drifted");

/// Smallest structurally possible pack (header + footer, no sections).
inline constexpr size_t kMinFileSize = sizeof(PackHeader) + sizeof(PackFooter);

}  // namespace pack
}  // namespace microbrowse

#endif  // MICROBROWSE_PACK_FORMAT_H_
