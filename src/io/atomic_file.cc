// Copyright 2026 The Microbrowse Authors

#include "io/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace microbrowse {

namespace {

constexpr char kFooterPrefix[] = "#checksum ";

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) {
    return Status::IOError("open for fsync failed: " + path + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed: " + path + ": " + std::strerror(saved_errno));
  }
  return Status::OK();
}

Status WriteFileAtomicImpl(const std::string& path, std::string_view payload) {
  const std::string temp = path + ".tmp";
  MB_FAILPOINT("io.write.open");
  std::ofstream out(temp, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + temp + ": " + std::strerror(errno));
  }
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  // ENOSPC and friends only surface through the stream state after the
  // flush — an unchecked close would happily report a truncated file as
  // success.
  if (!out.good()) {
    return Status::IOError("write failed: " + temp);
  }
  MB_FAILPOINT("io.write.flush");
  out.close();
  if (out.fail()) {
    return Status::IOError("close failed: " + temp);
  }
  MB_FAILPOINT("io.write.fsync");
  MB_RETURN_IF_ERROR(FsyncPath(temp, O_RDONLY));
  MB_FAILPOINT("io.write.rename");
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed: " + temp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  // Persist the directory entry so the rename survives a power cut. A
  // failure here is logged, not fatal: the data file itself is durable.
  const Status dir_status = FsyncPath(DirOf(path), O_RDONLY | O_DIRECTORY);
  if (!dir_status.ok()) {
    MB_LOG(kWarning) << "directory fsync after rename: " << dir_status.ToString();
  }
  return Status::OK();
}

}  // namespace

uint64_t ArtifactChecksum(std::string_view payload) { return Fnv1a64(payload); }

Status WriteFileAtomic(const std::string& path, std::string_view payload) {
  const Status status = WriteFileAtomicImpl(path, payload);
  if (!status.ok()) {
    std::remove((path + ".tmp").c_str());  // Best effort; the old file is intact.
  }
  return status;
}

Status WriteArtifactAtomic(const std::string& path, std::string_view payload, int64_t rows) {
  if (!payload.empty() && payload.back() != '\n') {
    return Status::InvalidArgument("artifact payload must end with a newline: " + path);
  }
  std::string full(payload);
  full += StrFormat("%s%016llx %lld\n", kFooterPrefix,
                    static_cast<unsigned long long>(ArtifactChecksum(payload)),
                    static_cast<long long>(rows));
  return WriteFileAtomic(path, full);
}

Result<ArtifactContent> ReadArtifact(const std::string& path, const LoadOptions& options) {
  MB_FAILPOINT("io.read.open");
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path + ": " + std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed: " + path);
  }
  std::string data = std::move(buffer).str();

  ArtifactContent content;
  std::string_view payload = data;

  // Locate a trailing "#checksum <hex> <rows>" footer line, if any.
  std::string_view footer;
  {
    std::string_view view = data;
    while (!view.empty() && view.back() == '\n') view.remove_suffix(1);
    const size_t line_start = view.find_last_of('\n') + 1;  // 0 when single-line.
    const std::string_view last_line = view.substr(line_start);
    if (StartsWith(last_line, kFooterPrefix)) {
      footer = last_line;
      payload = std::string_view(data).substr(0, line_start);
    }
  }

  if (!footer.empty()) {
    content.checksum_present = true;
    bool footer_ok = false;
    uint64_t declared_hash = 0;
    int64_t declared_rows = -1;
    const auto fields = SplitWhitespace(footer.substr(std::strlen(kFooterPrefix)));
    if (fields.size() == 2) {
      const auto [p1, e1] = std::from_chars(
          fields[0].data(), fields[0].data() + fields[0].size(), declared_hash, 16);
      const auto [p2, e2] = std::from_chars(fields[1].data(),
                                            fields[1].data() + fields[1].size(), declared_rows);
      footer_ok = e1 == std::errc() && p1 == fields[0].data() + fields[0].size() &&
                  e2 == std::errc() && p2 == fields[1].data() + fields[1].size();
    }
    content.declared_rows = footer_ok ? declared_rows : -1;
    if (options.verify_checksum) {
      content.checksum_ok = footer_ok && declared_hash == ArtifactChecksum(payload);
      const Status fp = failpoint::Check("io.read.checksum");
      if (!fp.ok()) content.checksum_ok = false;
      if (!content.checksum_ok) {
        if (options.recovery == LoadOptions::Recovery::kStrict) {
          return Status::IOError(
              StrFormat("%s: checksum mismatch — artifact is corrupt or truncated "
                        "(expected %016llx over %zu payload bytes)",
                        path.c_str(), static_cast<unsigned long long>(declared_hash),
                        payload.size()));
        }
        MB_LOG(kWarning) << path << ": checksum mismatch; salvaging rows (skip_and_log)";
      }
    }
  }

  content.lines = Split(payload, '\n');
  if (!content.lines.empty() && content.lines.back().empty()) {
    content.lines.pop_back();  // Trailing newline artifact of Split.
  }
  return content;
}

Status CreateDirectories(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("CreateDirectories: empty path");
  std::string prefix;
  for (const std::string& part : Split(path, '/')) {
    if (prefix.empty() && part.empty()) {
      prefix.push_back('/');  // Absolute path.
      continue;
    }
    if (part.empty()) continue;  // "a//b" and trailing '/'.
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    prefix += part;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir failed: " + prefix + ": " + std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace microbrowse
