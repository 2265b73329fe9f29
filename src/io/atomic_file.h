// Copyright 2026 The Microbrowse Authors
//
// Crash-safe artifact I/O: the write-side guarantees (temp file + fsync +
// atomic rename) and the read-side guarantees (checksummed footer, row-level
// corruption recovery) that every serialized artifact in the system builds
// on. A writer crash, a full disk or a torn write can never leave a half
// artifact under the final name — readers either see the complete previous
// version or the complete new one.
//
// Artifact format v2 appends one footer line to the v1 payload:
//
//   #checksum <fnv64-hex> <rows>
//
// where the hash covers every payload byte before the footer line and
// <rows> counts the non-empty data rows (header excluded). v1 files without
// a footer still load (checksum_present = false in the report).
//
// This target (mb_io_base) depends only on mb_common so that higher layers
// (mb_pack's writer, mb_io's serializers) can both link it.

#ifndef MICROBROWSE_IO_ATOMIC_FILE_H_
#define MICROBROWSE_IO_ATOMIC_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace microbrowse {

/// Read-side behaviour for serialized artifacts.
struct LoadOptions {
  enum class Recovery {
    /// Any corruption — bad checksum footer or a malformed row — fails the
    /// whole load. The default: corruption should be loud.
    kStrict,
    /// Salvage mode: malformed rows are skipped (and logged), a checksum
    /// mismatch is recorded in the LoadReport instead of failing. For
    /// recovering the healthy majority of a damaged artifact.
    kSkipAndLog,
  };
  Recovery recovery = Recovery::kStrict;
  /// When false, a present checksum footer is stripped but not verified.
  bool verify_checksum = true;
};

/// What a loader did with an artifact: how much survived, what was dropped,
/// and the first problem encountered (with its 1-based line number).
struct LoadReport {
  int64_t rows_kept = 0;
  int64_t rows_skipped = 0;
  bool checksum_present = false;
  bool checksum_ok = true;
  int first_error_line = 0;
  std::string first_error;
};

/// FNV-1a/64 over `payload` — the footer hash.
uint64_t ArtifactChecksum(std::string_view payload);

/// Atomically replaces `path` with `payload`: writes `path`.tmp, flushes,
/// fsyncs file and directory, then renames over `path`. On any failure the
/// previous `path` contents are untouched. Failpoints: io.write.open,
/// io.write.flush, io.write.fsync, io.write.rename.
Status WriteFileAtomic(const std::string& path, std::string_view payload);

/// Appends the v2 checksum footer for `payload` (which must end in '\n')
/// and writes the result atomically. `rows` is the data-row count recorded
/// in the footer.
Status WriteArtifactAtomic(const std::string& path, std::string_view payload, int64_t rows);

/// A loaded artifact with its footer stripped.
struct ArtifactContent {
  std::vector<std::string> lines;  ///< Payload lines, no trailing footer.
  bool checksum_present = false;
  bool checksum_ok = true;         ///< True when absent or not verified.
  int64_t declared_rows = -1;      ///< Row count from the footer, -1 when absent.
};

/// Reads `path` and verifies/strips the checksum footer. In kStrict mode a
/// bad footer (hash or malformed footer fields) fails with IOError; in
/// kSkipAndLog it is recorded in the content flags and the payload is
/// returned for row-level salvage. Failpoints: io.read.open,
/// io.read.checksum.
Result<ArtifactContent> ReadArtifact(const std::string& path, const LoadOptions& options = {});

/// mkdir -p: creates `path` and any missing parents (0755).
Status CreateDirectories(const std::string& path);

}  // namespace microbrowse

#endif  // MICROBROWSE_IO_ATOMIC_FILE_H_
