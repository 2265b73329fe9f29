// Copyright 2026 The Microbrowse Authors
//
// Minimal TCP socket helpers for the serving subsystem: IPv4 listen /
// connect / full-buffer send, plus a buffered newline-delimited reader.
// Errors surface as Status (kIOError) rather than errno checks at every
// call site; EINTR is retried throughout.

#ifndef MICROBROWSE_COMMON_SOCKET_H_
#define MICROBROWSE_COMMON_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace microbrowse {

/// An owned socket file descriptor (closed on destruction, movable).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes the descriptor now (idempotent). Any concurrent reader blocked
  /// on the fd is *not* woken on all platforms — use Shutdown first for
  /// that.
  void Close();

  /// shutdown(2) both directions — wakes readers blocked in recv so their
  /// threads can exit. No-op on an invalid socket.
  void Shutdown();

 private:
  int fd_ = -1;
};

/// Listens on `port` (0 = kernel-assigned) on all IPv4 interfaces with
/// SO_REUSEADDR. Returns the listening socket.
Result<Socket> TcpListen(uint16_t port, int backlog = 64);

/// The locally bound port of a listening (or connected) socket — the way to
/// discover a port-0 assignment.
Result<uint16_t> LocalPort(const Socket& socket);

/// Connects to `host:port` (IPv4 literal or "localhost"). TCP_NODELAY set.
Result<Socket> TcpConnect(const std::string& host, uint16_t port);

/// Writes all of `data`, looping over partial sends. SIGPIPE is suppressed
/// (MSG_NOSIGNAL); a closed peer surfaces as kIOError. A send that cannot
/// make progress blocks indefinitely — serving paths that must never pin a
/// thread on a slow consumer use SendAllTimed or SendSome instead.
Status SendAll(const Socket& socket, std::string_view data);

/// SendAll with an overall wall-clock bound: each wait for socket-buffer
/// space is a poll(POLLOUT) capped by the time remaining, so a peer that
/// stops reading (or trickles acknowledgements) surfaces as
/// kDeadlineExceeded within ~`timeout_ms` instead of pinning the caller in
/// send(2) forever. `timeout_ms` <= 0 degrades to plain SendAll.
Status SendAllTimed(const Socket& socket, std::string_view data, int64_t timeout_ms);

/// One non-blocking send attempt: writes as much of `data` as the socket
/// buffer accepts and returns the byte count (0 when the buffer is full —
/// EAGAIN is not an error). The socket should be in non-blocking mode;
/// kIOError covers real failures (EPIPE, ECONNRESET, ...).
Result<size_t> SendSome(const Socket& socket, std::string_view data);

/// Caps the kernel send buffer (SO_SNDBUF). Test hook: a tiny send buffer
/// makes "peer stopped reading" reproducible in milliseconds.
Status SetSendBufferBytes(const Socket& socket, int bytes);

/// Arms SO_RCVTIMEO: a recv(2) with no data for `ms` milliseconds returns
/// instead of blocking forever, surfacing through LineReader::ReadLine as
/// kDeadlineExceeded. The connection stays healthy — callers decide whether
/// a quiet interval is idle-eviction-worthy or just a slow client. 0
/// restores fully blocking reads.
Status SetRecvTimeoutMs(const Socket& socket, int64_t ms);

/// Buffered reader returning one '\n'-terminated line at a time (terminator
/// stripped, '\r' before it too). Reads from the fd only when the buffer
/// runs dry, so pipelined requests already received are served without
/// another syscall. A line longer than `max_line_bytes` fails with
/// kIOError instead of buffering without bound — a peer that never sends
/// '\n' cannot grow the buffer past the limit.
class LineReader {
 public:
  static constexpr size_t kDefaultMaxLineBytes = 4 << 20;

  explicit LineReader(const Socket& socket,
                      size_t max_line_bytes = kDefaultMaxLineBytes)
      : socket_(socket),
        max_line_bytes_(max_line_bytes > 0 ? max_line_bytes
                                           : kDefaultMaxLineBytes) {}

  /// Reads the next line into `line`. Returns OK with true on a line,
  /// OK with false on clean EOF (no partial line pending), and kIOError on
  /// socket errors, EOF in the middle of a line, or an over-long line.
  /// When the socket has a receive timeout armed (SetRecvTimeoutMs), a
  /// quiet interval surfaces as kDeadlineExceeded — the connection is
  /// still usable and the call can simply be repeated.
  Result<bool> ReadLine(std::string* line);

 private:
  const Socket& socket_;
  size_t max_line_bytes_;
  std::string buffer_;
  size_t start_ = 0;
};

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_SOCKET_H_
