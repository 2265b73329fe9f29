// Copyright 2026 The Microbrowse Authors

#include "common/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/string_util.h"

namespace microbrowse {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> TcpListen(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");
  return socket;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> TcpConnect(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("TcpConnect: not an IPv4 address: '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    if (errno == EINTR) continue;
    return Errno("connect");
  }
  SetNoDelay(fd);
  return socket;
}

Status SetRecvTimeoutMs(const Socket& socket, int64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

Status SendAll(const Socket& socket, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(socket.fd(), data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Status SendAllTimed(const Socket& socket, std::string_view data, int64_t timeout_ms) {
  if (timeout_ms <= 0) return SendAll(socket, data);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t sent = 0;
  while (sent < data.size()) {
    // Wait for buffer space first: POLLOUT guarantees the following send
    // accepts at least one byte, so each iteration either makes progress or
    // charges the remaining budget. Total wall time is bounded by
    // timeout_ms even against a peer that drains one byte per poll.
    const auto now = std::chrono::steady_clock::now();
    const int64_t remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    if (remaining_ms <= 0) {
      return Status::DeadlineExceeded("send timed out: peer not reading");
    }
    pollfd pfd{};
    pfd.fd = socket.fd();
    pfd.events = POLLOUT;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (ready == 0) {
      return Status::DeadlineExceeded("send timed out: peer not reading");
    }
    const ssize_t n =
        ::send(socket.fd(), data.data() + sent, data.size() - sent,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    return Errno("send");
  }
  return Status::OK();
}

Result<size_t> SendSome(const Socket& socket, std::string_view data) {
  for (;;) {
    const ssize_t n =
        ::send(socket.fd(), data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("send");
  }
}

Status SetSendBufferBytes(const Socket& socket, int bytes) {
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    return Errno("setsockopt(SO_SNDBUF)");
  }
  return Status::OK();
}

Result<bool> LineReader::ReadLine(std::string* line) {
  for (;;) {
    const size_t newline = buffer_.find('\n', start_);
    if (newline != std::string::npos) {
      size_t end = newline;
      if (end > start_ && buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, start_, end - start_);
      start_ = newline + 1;
      // Compact once the consumed prefix dominates the buffer.
      if (start_ > 64 * 1024 && start_ * 2 > buffer_.size()) {
        buffer_.erase(0, start_);
        start_ = 0;
      }
      return true;
    }
    // No complete line buffered: bound the partial line before reading
    // more, so a peer that never sends '\n' cannot grow the buffer
    // without limit.
    if (buffer_.size() - start_ >= max_line_bytes_) {
      return Status::IOError(
          StrFormat("line exceeds maximum length (%zu bytes)", max_line_bytes_));
    }
    char chunk[4096];
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      if (start_ < buffer_.size()) {
        return Status::IOError("connection closed mid-line");
      }
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO elapsed with no data. Not a connection failure: the
      // caller's idle/shutdown policy decides what a quiet interval means.
      return Status::DeadlineExceeded("recv timed out");
    }
    return Errno("recv");
  }
}

}  // namespace microbrowse
